//! The FreeHealth electronic health record workload (§11, Figure 8).
//!
//! FreeHealth is a real, actively used cloud EHR system; the paper ports its
//! storage layer onto Obladi and reports that it "consists of 21 transaction
//! types that doctors use to create patients and look up medical history,
//! prescriptions, and drug interactions".  This module re-implements the
//! Figure 8 schema — `Users`, `Patients`, `Episodes`, `EpisodeContents`,
//! `Prescriptions`, `Drugs`, `PMH` (past medical history) — and 21
//! transaction types over it, keeping the workload's defining properties:
//! short, read-heavy transactions centred on episode creation and lookup.

use crate::driver::{Workload, SETUP_RETRIES};
use crate::encoding::{pack_key, read_row, write_row, Row};
use obladi_common::error::{ObladiError, Result};
use obladi_common::rng::DetRng;
use obladi_core::{KvDatabase, KvTransaction};

const TABLE_USER: u8 = 30;
const TABLE_PATIENT: u8 = 31;
const TABLE_EPISODE: u8 = 32;
const TABLE_EPISODE_CONTENT: u8 = 33;
const TABLE_PRESCRIPTION: u8 = 34;
const TABLE_DRUG: u8 = 35;
const TABLE_PMH: u8 = 36;
/// Per-patient counters: number of episodes, prescriptions and PMH entries.
const TABLE_PATIENT_COUNTERS: u8 = 37;
/// Global allocation counters (next patient id, next episode id, ...).
const TABLE_SEQUENCES: u8 = 38;

mod patient_fields {
    pub const CREATOR: usize = 0;
    pub const IS_ACTIVE: usize = 1;
    pub const METADATA: usize = 2;
}
mod counter_fields {
    pub const EPISODES: usize = 0;
    pub const PRESCRIPTIONS: usize = 1;
    pub const PMH: usize = 2;
}

/// The 21 FreeHealth transaction types.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)]
pub enum FreeHealthTxn {
    CreateUser,
    LookupUser,
    CreatePatient,
    LookupPatient,
    UpdatePatientMetadata,
    DeactivatePatient,
    ReactivatePatient,
    CreateEpisode,
    AddEpisodeContent,
    ListEpisodes,
    ReadEpisodeContents,
    CreatePrescription,
    RenewPrescription,
    ListPrescriptions,
    CheckDrugInteractions,
    AddDrug,
    LookupDrug,
    AddMedicalHistory,
    ListMedicalHistory,
    PatientSummary,
    PrescribeWithInteractionCheck,
}

impl FreeHealthTxn {
    /// All transaction types.
    pub const ALL: [FreeHealthTxn; 21] = [
        FreeHealthTxn::CreateUser,
        FreeHealthTxn::LookupUser,
        FreeHealthTxn::CreatePatient,
        FreeHealthTxn::LookupPatient,
        FreeHealthTxn::UpdatePatientMetadata,
        FreeHealthTxn::DeactivatePatient,
        FreeHealthTxn::ReactivatePatient,
        FreeHealthTxn::CreateEpisode,
        FreeHealthTxn::AddEpisodeContent,
        FreeHealthTxn::ListEpisodes,
        FreeHealthTxn::ReadEpisodeContents,
        FreeHealthTxn::CreatePrescription,
        FreeHealthTxn::RenewPrescription,
        FreeHealthTxn::ListPrescriptions,
        FreeHealthTxn::CheckDrugInteractions,
        FreeHealthTxn::AddDrug,
        FreeHealthTxn::LookupDrug,
        FreeHealthTxn::AddMedicalHistory,
        FreeHealthTxn::ListMedicalHistory,
        FreeHealthTxn::PatientSummary,
        FreeHealthTxn::PrescribeWithInteractionCheck,
    ];

    /// Samples a transaction according to a read-heavy clinic-style mix:
    /// episode creation and record lookups dominate, administrative
    /// operations are rare.
    pub fn sample(rng: &mut DetRng) -> Self {
        match rng.below(100) {
            0..=17 => FreeHealthTxn::CreateEpisode,
            18..=29 => FreeHealthTxn::ReadEpisodeContents,
            30..=39 => FreeHealthTxn::ListEpisodes,
            40..=49 => FreeHealthTxn::PatientSummary,
            50..=57 => FreeHealthTxn::LookupPatient,
            58..=64 => FreeHealthTxn::ListPrescriptions,
            65..=70 => FreeHealthTxn::CheckDrugInteractions,
            71..=76 => FreeHealthTxn::CreatePrescription,
            77..=80 => FreeHealthTxn::AddEpisodeContent,
            81..=84 => FreeHealthTxn::ListMedicalHistory,
            85..=87 => FreeHealthTxn::PrescribeWithInteractionCheck,
            88..=89 => FreeHealthTxn::AddMedicalHistory,
            90..=91 => FreeHealthTxn::LookupDrug,
            92..=93 => FreeHealthTxn::LookupUser,
            94 => FreeHealthTxn::RenewPrescription,
            95 => FreeHealthTxn::UpdatePatientMetadata,
            96 => FreeHealthTxn::CreatePatient,
            97 => FreeHealthTxn::DeactivatePatient,
            98 => FreeHealthTxn::ReactivatePatient,
            99 => FreeHealthTxn::AddDrug,
            _ => FreeHealthTxn::CreateUser,
        }
    }
}

/// FreeHealth configuration.
#[derive(Debug, Clone, Copy)]
pub struct FreeHealthConfig {
    /// Number of users (doctors / nurses).
    pub users: u64,
    /// Number of patients pre-loaded.
    pub patients: u64,
    /// Number of drugs in the formulary.
    pub drugs: u64,
    /// Episodes pre-loaded per patient.
    pub episodes_per_patient: u64,
    /// Maximum episodes a list transaction scans.
    pub list_limit: u64,
}

impl FreeHealthConfig {
    /// Small configuration for unit tests.
    pub fn small() -> Self {
        FreeHealthConfig {
            users: 4,
            patients: 20,
            drugs: 16,
            episodes_per_patient: 2,
            list_limit: 3,
        }
    }

    /// Benchmark-scale configuration.
    pub fn benchmark() -> Self {
        FreeHealthConfig {
            users: 50,
            patients: 2000,
            drugs: 500,
            episodes_per_patient: 3,
            list_limit: 5,
        }
    }
}

/// The FreeHealth workload.
pub struct FreeHealthWorkload {
    config: FreeHealthConfig,
}

impl FreeHealthWorkload {
    /// Creates the workload.
    pub fn new(config: FreeHealthConfig) -> Self {
        FreeHealthWorkload { config }
    }

    /// The configuration.
    pub fn config(&self) -> &FreeHealthConfig {
        &self.config
    }

    fn user_key(user: u64) -> u64 {
        pack_key(TABLE_USER, user, 0, 0)
    }
    fn patient_key(patient: u64) -> u64 {
        pack_key(TABLE_PATIENT, patient, 0, 0)
    }
    fn counters_key(patient: u64) -> u64 {
        pack_key(TABLE_PATIENT_COUNTERS, patient, 0, 0)
    }
    fn episode_key(patient: u64, episode: u64) -> u64 {
        pack_key(TABLE_EPISODE, patient, episode % (1 << 16), 0)
    }
    fn episode_content_key(patient: u64, episode: u64, content: u64) -> u64 {
        pack_key(
            TABLE_EPISODE_CONTENT,
            patient,
            episode % (1 << 16),
            content % (1 << 16),
        )
    }
    fn prescription_key(patient: u64, prescription: u64) -> u64 {
        pack_key(TABLE_PRESCRIPTION, patient, prescription % (1 << 16), 0)
    }
    fn drug_key(drug: u64) -> u64 {
        pack_key(TABLE_DRUG, drug, 0, 0)
    }
    fn pmh_key(patient: u64, entry: u64) -> u64 {
        pack_key(TABLE_PMH, patient, entry % (1 << 16), 0)
    }
    fn sequence_key(name: u64) -> u64 {
        pack_key(TABLE_SEQUENCES, name, 0, 0)
    }

    fn pick_patient(&self, rng: &mut DetRng) -> u64 {
        rng.below(self.config.patients)
    }
    fn pick_user(&self, rng: &mut DetRng) -> u64 {
        rng.below(self.config.users)
    }
    fn pick_drug(&self, rng: &mut DetRng) -> u64 {
        rng.below(self.config.drugs)
    }

    fn map_result(result: Result<()>) -> Result<bool> {
        match result {
            Ok(()) => Ok(true),
            Err(err) if err.is_retryable() => Ok(false),
            Err(err) => Err(err),
        }
    }

    fn read_counters(txn: &mut dyn KvTransaction, patient: u64) -> Result<Row> {
        Ok(read_row(txn, Self::counters_key(patient))?.unwrap_or_else(|| Row::new(vec![0, 0, 0])))
    }

    /// Runs a specific transaction type (also used directly by tests).
    pub fn run_txn<D: KvDatabase>(
        &self,
        db: &D,
        kind: FreeHealthTxn,
        rng: &mut DetRng,
    ) -> Result<bool> {
        let patient = self.pick_patient(rng);
        let user = self.pick_user(rng);
        let drug = self.pick_drug(rng);
        let list_limit = self.config.list_limit;

        let result: Result<()> = match kind {
            FreeHealthTxn::CreateUser => db.execute(&mut |txn: &mut dyn KvTransaction| {
                let seq_key = Self::sequence_key(0);
                let next = read_row(txn, seq_key)?
                    .map(|r| r.num(0).unwrap_or(0))
                    .unwrap_or(self.config.users);
                write_row(txn, seq_key, &Row::new(vec![next + 1]))?;
                write_row(txn, Self::user_key(next), &Row::new(vec![1, next]))
            }),
            FreeHealthTxn::LookupUser => db.execute(&mut |txn: &mut dyn KvTransaction| {
                read_row(txn, Self::user_key(user))?;
                Ok(())
            }),
            FreeHealthTxn::CreatePatient => db.execute(&mut |txn: &mut dyn KvTransaction| {
                let seq_key = Self::sequence_key(1);
                let next = read_row(txn, seq_key)?
                    .map(|r| r.num(0).unwrap_or(0))
                    .unwrap_or(self.config.patients);
                write_row(txn, seq_key, &Row::new(vec![next + 1]))?;
                let mut row = Row::new(vec![0; 3]);
                row.set_num(patient_fields::CREATOR, user);
                row.set_num(patient_fields::IS_ACTIVE, 1);
                write_row(txn, Self::patient_key(next), &row)?;
                write_row(txn, Self::counters_key(next), &Row::new(vec![0, 0, 0]))
            }),
            FreeHealthTxn::LookupPatient => db.execute(&mut |txn: &mut dyn KvTransaction| {
                let key = Self::patient_key(patient);
                read_row(txn, key)?.ok_or(ObladiError::KeyNotFound(key))?;
                Ok(())
            }),
            FreeHealthTxn::UpdatePatientMetadata => {
                db.execute(&mut |txn: &mut dyn KvTransaction| {
                    let key = Self::patient_key(patient);
                    let mut row = read_row(txn, key)?.ok_or(ObladiError::KeyNotFound(key))?;
                    row.set_num(
                        patient_fields::METADATA,
                        row.num(patient_fields::METADATA)? + 1,
                    );
                    write_row(txn, key, &row)
                })
            }
            FreeHealthTxn::DeactivatePatient | FreeHealthTxn::ReactivatePatient => {
                let active = matches!(kind, FreeHealthTxn::ReactivatePatient) as u64;
                db.execute(&mut |txn: &mut dyn KvTransaction| {
                    let key = Self::patient_key(patient);
                    let mut row = read_row(txn, key)?.ok_or(ObladiError::KeyNotFound(key))?;
                    row.set_num(patient_fields::IS_ACTIVE, active);
                    write_row(txn, key, &row)
                })
            }
            FreeHealthTxn::CreateEpisode => db.execute(&mut |txn: &mut dyn KvTransaction| {
                // Episode creation is the contention point the paper calls
                // out: it reads the patient, bumps the per-patient episode
                // counter and inserts the episode plus its first content row.
                let patient_key = Self::patient_key(patient);
                read_row(txn, patient_key)?.ok_or(ObladiError::KeyNotFound(patient_key))?;
                let counters_key = Self::counters_key(patient);
                let mut counters = Self::read_counters(txn, patient)?;
                let episode = counters.num(counter_fields::EPISODES)?;
                counters.set_num(counter_fields::EPISODES, episode + 1);
                write_row(txn, counters_key, &counters)?;
                write_row(
                    txn,
                    Self::episode_key(patient, episode),
                    &Row::new(vec![patient, user, 1]),
                )?;
                write_row(
                    txn,
                    Self::episode_content_key(patient, episode, 0),
                    &Row::with_blob(vec![0], vec![0xE0; 48]),
                )
            }),
            FreeHealthTxn::AddEpisodeContent => db.execute(&mut |txn: &mut dyn KvTransaction| {
                let counters = Self::read_counters(txn, patient)?;
                let episodes = counters.num(counter_fields::EPISODES)?;
                if episodes == 0 {
                    return Ok(());
                }
                let episode = rng_free(episodes, patient);
                let episode_key = Self::episode_key(patient, episode);
                let mut episode_row = match read_row(txn, episode_key)? {
                    Some(row) => row,
                    None => return Ok(()),
                };
                let content_count = episode_row.num(2)?;
                episode_row.set_num(2, content_count + 1);
                write_row(txn, episode_key, &episode_row)?;
                write_row(
                    txn,
                    Self::episode_content_key(patient, episode, content_count),
                    &Row::with_blob(vec![content_count], vec![0xE1; 48]),
                )
            }),
            FreeHealthTxn::ListEpisodes => db.execute(&mut |txn: &mut dyn KvTransaction| {
                let counters = Self::read_counters(txn, patient)?;
                let episodes = counters.num(counter_fields::EPISODES)?;
                let first = episodes.saturating_sub(list_limit);
                for episode in first..episodes {
                    read_row(txn, Self::episode_key(patient, episode))?;
                }
                Ok(())
            }),
            FreeHealthTxn::ReadEpisodeContents => db.execute(&mut |txn: &mut dyn KvTransaction| {
                let counters = Self::read_counters(txn, patient)?;
                let episodes = counters.num(counter_fields::EPISODES)?;
                if episodes == 0 {
                    return Ok(());
                }
                let episode = rng_free(episodes, patient);
                if let Some(episode_row) = read_row(txn, Self::episode_key(patient, episode))? {
                    let contents = episode_row.num(2)?.min(list_limit);
                    for content in 0..contents {
                        read_row(txn, Self::episode_content_key(patient, episode, content))?;
                    }
                }
                Ok(())
            }),
            FreeHealthTxn::CreatePrescription | FreeHealthTxn::PrescribeWithInteractionCheck => {
                db.execute(&mut |txn: &mut dyn KvTransaction| {
                    let patient_key = Self::patient_key(patient);
                    read_row(txn, patient_key)?.ok_or(ObladiError::KeyNotFound(patient_key))?;
                    if matches!(kind, FreeHealthTxn::PrescribeWithInteractionCheck) {
                        // Check interactions against the patient's current
                        // prescriptions before adding a new one.
                        let counters = Self::read_counters(txn, patient)?;
                        let prescriptions = counters.num(counter_fields::PRESCRIPTIONS)?;
                        let first = prescriptions.saturating_sub(list_limit);
                        for p in first..prescriptions {
                            if let Some(row) = read_row(txn, Self::prescription_key(patient, p))? {
                                let existing_drug = row.num(0)?;
                                read_row(txn, Self::drug_key(existing_drug))?;
                            }
                        }
                    }
                    read_row(txn, Self::drug_key(drug))?
                        .ok_or(ObladiError::KeyNotFound(Self::drug_key(drug)))?;
                    let counters_key = Self::counters_key(patient);
                    let mut counters = Self::read_counters(txn, patient)?;
                    let prescription = counters.num(counter_fields::PRESCRIPTIONS)?;
                    counters.set_num(counter_fields::PRESCRIPTIONS, prescription + 1);
                    write_row(txn, counters_key, &counters)?;
                    write_row(
                        txn,
                        Self::prescription_key(patient, prescription),
                        &Row::new(vec![drug, user, 30]),
                    )
                })
            }
            FreeHealthTxn::RenewPrescription => db.execute(&mut |txn: &mut dyn KvTransaction| {
                let counters = Self::read_counters(txn, patient)?;
                let prescriptions = counters.num(counter_fields::PRESCRIPTIONS)?;
                if prescriptions == 0 {
                    return Ok(());
                }
                let key = Self::prescription_key(patient, prescriptions - 1);
                if let Some(mut row) = read_row(txn, key)? {
                    row.set_num(2, row.num(2)? + 30);
                    write_row(txn, key, &row)?;
                }
                Ok(())
            }),
            FreeHealthTxn::ListPrescriptions => db.execute(&mut |txn: &mut dyn KvTransaction| {
                let counters = Self::read_counters(txn, patient)?;
                let prescriptions = counters.num(counter_fields::PRESCRIPTIONS)?;
                let first = prescriptions.saturating_sub(list_limit);
                for p in first..prescriptions {
                    read_row(txn, Self::prescription_key(patient, p))?;
                }
                Ok(())
            }),
            FreeHealthTxn::CheckDrugInteractions => {
                db.execute(&mut |txn: &mut dyn KvTransaction| {
                    let a = Self::drug_key(drug);
                    let b = Self::drug_key((drug + 1) % self.config.drugs.max(1));
                    read_row(txn, a)?;
                    read_row(txn, b)?;
                    Ok(())
                })
            }
            FreeHealthTxn::AddDrug => db.execute(&mut |txn: &mut dyn KvTransaction| {
                let seq_key = Self::sequence_key(2);
                let next = read_row(txn, seq_key)?
                    .map(|r| r.num(0).unwrap_or(0))
                    .unwrap_or(self.config.drugs);
                write_row(txn, seq_key, &Row::new(vec![next + 1]))?;
                write_row(txn, Self::drug_key(next), &Row::new(vec![next, 0]))
            }),
            FreeHealthTxn::LookupDrug => db.execute(&mut |txn: &mut dyn KvTransaction| {
                read_row(txn, Self::drug_key(drug))?;
                Ok(())
            }),
            FreeHealthTxn::AddMedicalHistory => db.execute(&mut |txn: &mut dyn KvTransaction| {
                let counters_key = Self::counters_key(patient);
                let mut counters = Self::read_counters(txn, patient)?;
                let entry = counters.num(counter_fields::PMH)?;
                counters.set_num(counter_fields::PMH, entry + 1);
                write_row(txn, counters_key, &counters)?;
                write_row(
                    txn,
                    Self::pmh_key(patient, entry),
                    &Row::new(vec![entry % 7, user]),
                )
            }),
            FreeHealthTxn::ListMedicalHistory => db.execute(&mut |txn: &mut dyn KvTransaction| {
                let counters = Self::read_counters(txn, patient)?;
                let entries = counters.num(counter_fields::PMH)?;
                let first = entries.saturating_sub(list_limit);
                for entry in first..entries {
                    read_row(txn, Self::pmh_key(patient, entry))?;
                }
                Ok(())
            }),
            FreeHealthTxn::PatientSummary => db.execute(&mut |txn: &mut dyn KvTransaction| {
                // The doctor's landing page: patient record, latest episode,
                // latest prescription, latest history entry.
                let patient_key = Self::patient_key(patient);
                read_row(txn, patient_key)?.ok_or(ObladiError::KeyNotFound(patient_key))?;
                let counters = Self::read_counters(txn, patient)?;
                let episodes = counters.num(counter_fields::EPISODES)?;
                if episodes > 0 {
                    read_row(txn, Self::episode_key(patient, episodes - 1))?;
                }
                let prescriptions = counters.num(counter_fields::PRESCRIPTIONS)?;
                if prescriptions > 0 {
                    read_row(txn, Self::prescription_key(patient, prescriptions - 1))?;
                }
                let pmh = counters.num(counter_fields::PMH)?;
                if pmh > 0 {
                    read_row(txn, Self::pmh_key(patient, pmh - 1))?;
                }
                Ok(())
            }),
        };
        Self::map_result(result)
    }
}

/// Deterministic pseudo-random pick of an episode/prescription index without
/// threading the RNG into the transaction closure (keeps retries touching the
/// same rows).
fn rng_free(modulus: u64, salt: u64) -> u64 {
    if modulus == 0 {
        0
    } else {
        (salt.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 17) % modulus
    }
}

impl Workload for FreeHealthWorkload {
    fn setup<D: KvDatabase>(&self, db: &D) -> Result<()> {
        let cfg = &self.config;
        // Users.
        db.execute_with_retries(SETUP_RETRIES, &mut |txn: &mut dyn KvTransaction| {
            for user in 0..cfg.users {
                write_row(txn, Self::user_key(user), &Row::new(vec![1, user]))?;
            }
            Ok(())
        })?;
        // Drugs.
        let chunk = 16u64;
        let mut start = 0;
        while start < cfg.drugs {
            let end = (start + chunk).min(cfg.drugs);
            db.execute_with_retries(SETUP_RETRIES, &mut |txn: &mut dyn KvTransaction| {
                for drug in start..end {
                    write_row(txn, Self::drug_key(drug), &Row::new(vec![drug, drug % 5]))?;
                }
                Ok(())
            })?;
            start = end;
        }
        // Patients, counters and initial episodes.
        let mut patient = 0;
        while patient < cfg.patients {
            let end = (patient + 8).min(cfg.patients);
            db.execute_with_retries(SETUP_RETRIES, &mut |txn: &mut dyn KvTransaction| {
                for p in patient..end {
                    let mut row = Row::new(vec![0; 3]);
                    row.set_num(patient_fields::CREATOR, p % cfg.users.max(1));
                    row.set_num(patient_fields::IS_ACTIVE, 1);
                    write_row(txn, Self::patient_key(p), &row)?;
                    write_row(
                        txn,
                        Self::counters_key(p),
                        &Row::new(vec![cfg.episodes_per_patient, 0, 0]),
                    )?;
                    for episode in 0..cfg.episodes_per_patient {
                        write_row(
                            txn,
                            Self::episode_key(p, episode),
                            &Row::new(vec![p, p % cfg.users.max(1), 1]),
                        )?;
                        write_row(
                            txn,
                            Self::episode_content_key(p, episode, 0),
                            &Row::with_blob(vec![0], vec![0xE0; 48]),
                        )?;
                    }
                }
                Ok(())
            })?;
            patient = end;
        }
        Ok(())
    }

    fn run_one<D: KvDatabase>(&self, db: &D, rng: &mut DetRng) -> Result<bool> {
        let kind = FreeHealthTxn::sample(rng);
        self.run_txn(db, kind, rng)
    }

    fn name(&self) -> &'static str {
        "freehealth"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::run_fixed_count;
    use obladi_core::TwoPhaseLockingDb;

    fn setup() -> (TwoPhaseLockingDb, FreeHealthWorkload) {
        let db = TwoPhaseLockingDb::new();
        let workload = FreeHealthWorkload::new(FreeHealthConfig::small());
        workload.setup(&db).unwrap();
        (db, workload)
    }

    #[test]
    fn there_are_exactly_21_transaction_types() {
        assert_eq!(FreeHealthTxn::ALL.len(), 21);
        let unique: std::collections::HashSet<_> = FreeHealthTxn::ALL.iter().collect();
        assert_eq!(unique.len(), 21);
    }

    #[test]
    fn sampler_reaches_a_wide_range_of_types() {
        let mut rng = DetRng::new(1);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..5000 {
            seen.insert(FreeHealthTxn::sample(&mut rng));
        }
        assert!(seen.len() >= 18, "only {} types sampled", seen.len());
    }

    #[test]
    fn create_episode_increments_patient_counter() {
        let (db, workload) = setup();
        let mut rng = DetRng::new(2);
        for _ in 0..5 {
            assert!(workload
                .run_txn(&db, FreeHealthTxn::CreateEpisode, &mut rng)
                .unwrap());
        }
        // Total episode count across patients must have grown by 5.
        let mut total = 0u64;
        db.execute(&mut |txn: &mut dyn KvTransaction| {
            for p in 0..20u64 {
                let counters = FreeHealthWorkload::read_counters(txn, p)?;
                total += counters.num(counter_fields::EPISODES)?;
            }
            Ok(())
        })
        .unwrap();
        assert_eq!(total, 20 * 2 + 5);
    }

    #[test]
    fn prescriptions_can_be_created_listed_and_renewed() {
        let (db, workload) = setup();
        let mut rng = DetRng::new(3);
        for _ in 0..10 {
            workload
                .run_txn(&db, FreeHealthTxn::CreatePrescription, &mut rng)
                .unwrap();
        }
        assert!(workload
            .run_txn(&db, FreeHealthTxn::ListPrescriptions, &mut rng)
            .unwrap());
        assert!(workload
            .run_txn(&db, FreeHealthTxn::RenewPrescription, &mut rng)
            .unwrap());
        assert!(workload
            .run_txn(&db, FreeHealthTxn::PrescribeWithInteractionCheck, &mut rng)
            .unwrap());
    }

    #[test]
    fn patient_lifecycle_transactions_work() {
        let (db, workload) = setup();
        let mut rng = DetRng::new(4);
        for kind in [
            FreeHealthTxn::CreatePatient,
            FreeHealthTxn::LookupPatient,
            FreeHealthTxn::UpdatePatientMetadata,
            FreeHealthTxn::DeactivatePatient,
            FreeHealthTxn::ReactivatePatient,
            FreeHealthTxn::PatientSummary,
            FreeHealthTxn::AddMedicalHistory,
            FreeHealthTxn::ListMedicalHistory,
            FreeHealthTxn::CreateUser,
            FreeHealthTxn::LookupUser,
            FreeHealthTxn::AddDrug,
            FreeHealthTxn::LookupDrug,
            FreeHealthTxn::CheckDrugInteractions,
            FreeHealthTxn::AddEpisodeContent,
            FreeHealthTxn::ListEpisodes,
            FreeHealthTxn::ReadEpisodeContents,
        ] {
            assert!(
                workload.run_txn(&db, kind, &mut rng).unwrap(),
                "transaction {kind:?} must commit"
            );
        }
    }

    #[test]
    fn full_mix_commits_mostly() {
        let (db, workload) = setup();
        let stats = run_fixed_count(&db, &workload, 200, 5).unwrap();
        assert_eq!(stats.committed + stats.aborted, 200);
        assert!(
            stats.committed as f64 / 200.0 > 0.9,
            "commit rate too low: {}",
            stats.summary()
        );
    }
}
