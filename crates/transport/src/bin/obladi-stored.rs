//! `obladi-stored` — the untrusted storage daemon.
//!
//! Hosts a crash-safe [`DurableStore`] behind the framed storage RPC, one
//! process per shard.  This is the "cloud storage server" half of the
//! paper's trust split: everything it holds is encrypted, MACed and padded
//! by the proxy before it arrives, so the daemon (and anyone reading its
//! disk or its socket) sees only the workload-independent rhythm of
//! batched requests.
//!
//! ```text
//! obladi-stored --listen unix:/run/obladi/shard0.sock --data /var/lib/obladi/shard0
//! obladi-stored --listen tcp:0.0.0.0:7341            --data /var/lib/obladi/shard0
//! ```
//!
//! The process exits on a client `Shutdown` request (graceful; state is
//! flushed per-operation anyway) and survives `kill -9` by replaying its
//! op-log at the next start.

#![forbid(unsafe_code)]

use obladi_storage::DurableStore;
use obladi_transport::{serve, SocketSpec};
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Arc;

fn usage() -> ! {
    eprintln!(
        "usage: obladi-stored --listen <unix:PATH|tcp:HOST:PORT> --data <DIR> \
         [--compact-every N]\n\
         \n\
         Serves the Obladi untrusted-storage RPC from a durable op-log\n\
         rooted at DIR.  Every N acknowledged mutations (default {}, 0 =\n\
         never; also settable via OBLADI_STORED_COMPACT_EVERY) the op-log\n\
         is compacted into a checksummed state snapshot, bounding respawn\n\
         replay cost.  Exits on a client shutdown request.",
        obladi_storage::disk::DEFAULT_COMPACT_EVERY
    );
    std::process::exit(2);
}

fn main() -> ExitCode {
    let mut listen: Option<String> = None;
    let mut data: Option<PathBuf> = None;
    let mut compact_every = std::env::var("OBLADI_STORED_COMPACT_EVERY")
        .ok()
        .and_then(|v| v.parse::<u64>().ok())
        .unwrap_or(obladi_storage::disk::DEFAULT_COMPACT_EVERY);
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--listen" => listen = args.next(),
            "--data" => data = args.next().map(PathBuf::from),
            "--compact-every" => match args.next().and_then(|v| v.parse::<u64>().ok()) {
                Some(n) => compact_every = n,
                None => {
                    eprintln!("obladi-stored: --compact-every needs a number");
                    usage();
                }
            },
            "--help" | "-h" => usage(),
            other => {
                eprintln!("obladi-stored: unknown argument {other:?}");
                usage();
            }
        }
    }
    let (Some(listen), Some(data)) = (listen, data) else {
        usage();
    };

    let spec = match SocketSpec::parse(&listen) {
        Ok(spec) => spec,
        Err(err) => {
            eprintln!("obladi-stored: {err}");
            return ExitCode::FAILURE;
        }
    };
    let (store, replay) = match DurableStore::open_with_options(&data, compact_every) {
        Ok(opened) => opened,
        Err(err) => {
            eprintln!(
                "obladi-stored: cannot open data dir {}: {err}",
                data.display()
            );
            return ExitCode::FAILURE;
        }
    };
    if replay.torn_bytes > 0 {
        eprintln!(
            "obladi-stored: retired a torn op-log tail of {} bytes (unacknowledged write)",
            replay.torn_bytes
        );
    }
    let mut handle = match serve(&spec, Arc::new(store)) {
        Ok(handle) => handle,
        Err(err) => {
            eprintln!("obladi-stored: cannot serve on {spec}: {err}");
            return ExitCode::FAILURE;
        }
    };
    println!(
        "obladi-stored: serving {} from {} ({} ops replayed on snapshot generation {})",
        handle.spec(),
        data.display(),
        replay.records,
        replay.snapshot_generation
    );
    handle.wait();
    println!("obladi-stored: shut down cleanly");
    ExitCode::SUCCESS
}
