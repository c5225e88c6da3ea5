//! Crash-safe run journal (`impulse-journal-v1`) and the resumable grid
//! driver built on it.
//!
//! As each experiment in a grid completes, the runner appends one JSONL
//! record — experiment id, master seed, and either the finished
//! artifacts (CSV row + compact JSON fragment) or a typed error string —
//! and `fsync`s the file, so a `SIGKILL` at any instant loses at most
//! the experiments that were in flight. Every line carries an FNV-64
//! checksum of its record; on recovery a truncated or corrupt tail
//! record is detected and **dropped**, never propagated into results.
//!
//! `--resume` replays the journal: completed experiments are skipped,
//! incomplete or failed ones are rerun, and the merged outputs are
//! byte-identical to an uninterrupted run — the journal stores exactly
//! the strings/JSON the final documents are assembled from, and the
//! [`Json`] formatter is text-stable through a parse/format cycle.

use std::fs::{File, OpenOptions};
use std::io::{self, BufRead, BufReader, Write};
use std::path::Path;
use std::sync::Mutex;

use impulse_obs::Json;
use impulse_types::snap::fnv64;
use impulse_types::{ExperimentKey, FxHashMap};

use crate::runner::{self, JobError, SharedJob, SuperviseOpts};

/// Journal record schema identifier.
pub const SCHEMA: &str = "impulse-journal-v1";

/// What a finished experiment contributes to the final documents.
#[derive(Clone, Debug, PartialEq)]
pub struct RunArtifacts {
    /// The experiment's CSV row (or fully rendered table line).
    pub csv: String,
    /// The experiment's JSON fragment (stored compact in the journal).
    pub json: Json,
}

/// One journal entry: an experiment that finished — successfully or with
/// a typed error.
#[derive(Clone, Debug, PartialEq)]
pub struct JournalRecord {
    /// Experiment id (the catalog name; unique within a grid).
    pub id: String,
    /// The master seed the grid ran under; records from a different seed
    /// are ignored on resume.
    pub seed: u64,
    /// Artifacts on success, the error's `Display` string on failure.
    pub outcome: Result<RunArtifacts, String>,
}

impl JournalRecord {
    /// The stable experiment identity for this record — the same
    /// `(config, seed)` digest the trace-capture file names use, so one
    /// hex key cross-references an experiment across both artifacts.
    pub fn key(&self) -> ExperimentKey {
        ExperimentKey::from_id(&self.id, self.seed)
    }

    /// The record body as JSON (without the checksum envelope).
    pub fn to_json(&self) -> Json {
        let mut r = Json::obj();
        r.set("schema", Json::Str(SCHEMA.into()));
        r.set("id", Json::Str(self.id.clone()));
        r.set("seed", Json::UInt(self.seed));
        r.set("key", Json::Str(self.key().hex()));
        match &self.outcome {
            Ok(a) => {
                r.set("ok", Json::Bool(true));
                r.set("csv", Json::Str(a.csv.clone()));
                r.set("report", a.json.clone());
            }
            Err(e) => {
                r.set("ok", Json::Bool(false));
                r.set("error", Json::Str(e.clone()));
            }
        }
        r
    }

    /// Decodes a record body; `None` if the shape or schema is wrong.
    pub fn from_json(v: &Json) -> Option<Self> {
        if v.get("schema")?.as_str()? != SCHEMA {
            return None;
        }
        let id = v.get("id")?.as_str()?.to_string();
        let seed = v.get("seed")?.as_u64()?;
        // The key is derived from (id, seed); a mismatch means the line
        // was stitched together from two different records.
        if v.get("key")?.as_str()? != ExperimentKey::from_id(&id, seed).hex() {
            return None;
        }
        let outcome = match v.get("ok")? {
            Json::Bool(true) => Ok(RunArtifacts {
                csv: v.get("csv")?.as_str()?.to_string(),
                json: v.get("report")?.clone(),
            }),
            Json::Bool(false) => Err(v.get("error")?.as_str()?.to_string()),
            _ => return None,
        };
        Some(Self { id, seed, outcome })
    }

    /// Encodes the full journal line: `{"sum":<fnv64>,"record":{...}}`
    /// where `sum` covers the compact serialization of `record`.
    fn to_line(&self) -> String {
        let body = format!("{}", self.to_json());
        let mut line = Json::obj();
        line.set("sum", Json::UInt(fnv64(body.as_bytes())));
        line.set("record", self.to_json());
        format!("{line}")
    }

    /// Decodes and verifies one journal line; `None` for malformed JSON,
    /// a checksum mismatch, or a wrong schema — the corrupt-tail cases.
    fn from_line(line: &str) -> Option<Self> {
        let v = Json::parse(line).ok()?;
        let sum = v.get("sum")?.as_u64()?;
        let record = v.get("record")?;
        if fnv64(format!("{record}").as_bytes()) != sum {
            return None;
        }
        Self::from_json(record)
    }
}

/// An append-only, fsync-per-record journal writer.
pub struct Journal {
    file: File,
}

impl Journal {
    /// Opens (or creates) the journal at `path` for appending, creating
    /// parent directories as needed.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn append_to(path: &Path) -> io::Result<Self> {
        if let Some(dir) = path.parent() {
            if !dir.as_os_str().is_empty() {
                std::fs::create_dir_all(dir)?;
            }
        }
        let file = OpenOptions::new().create(true).append(true).open(path)?;
        Ok(Self { file })
    }

    /// Appends one record and flushes it to stable storage before
    /// returning — the crash-safety contract: once `append` returns, a
    /// `SIGKILL` cannot lose the record.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn append(&mut self, rec: &JournalRecord) -> io::Result<()> {
        let mut line = rec.to_line();
        line.push('\n');
        self.file.write_all(line.as_bytes())?;
        self.file.sync_data()
    }
}

/// What [`load`] recovered from a journal file.
#[derive(Clone, Debug, Default)]
pub struct Recovered {
    /// Valid records, in file (append) order.
    pub records: Vec<JournalRecord>,
    /// Lines dropped as truncated or corrupt. Parsing stops at the first
    /// bad line: everything after a corrupt record is suspect.
    pub dropped: usize,
}

impl Recovered {
    /// Collapses to the authoritative record per experiment id:
    /// last-write-wins, and records from a different master seed are
    /// ignored (they belong to a different grid).
    pub fn latest_for_seed(&self, seed: u64) -> FxHashMap<String, JournalRecord> {
        let mut out = FxHashMap::default();
        for r in &self.records {
            if r.seed == seed {
                out.insert(r.id.clone(), r.clone());
            }
        }
        out
    }
}

/// Reads a journal file, dropping the truncated/corrupt tail. A missing
/// file recovers as empty — a fresh run.
///
/// # Errors
///
/// Propagates filesystem errors other than "not found".
pub fn load(path: &Path) -> io::Result<Recovered> {
    let file = match File::open(path) {
        Ok(f) => f,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(Recovered::default()),
        Err(e) => return Err(e),
    };
    let mut out = Recovered::default();
    let mut lines = BufReader::new(file).lines();
    for line in &mut lines {
        let line = line?;
        if line.trim().is_empty() {
            continue;
        }
        match JournalRecord::from_line(&line) {
            Some(rec) => out.records.push(rec),
            None => {
                out.dropped = 1 + lines.count();
                break;
            }
        }
    }
    Ok(out)
}

/// Runs a named experiment grid with crash-safe journaling and resume.
///
/// * Fresh runs truncate any stale journal at `journal_path` first.
/// * With `resume`, journaled outcomes for the current seed are reused;
///   only missing or previously failed experiments run.
/// * Every completed job — success or typed failure — is appended and
///   fsync'd as it finishes, from whichever worker thread ran it.
/// * The returned list is in catalog order, mixing reused and fresh
///   outcomes, so callers assemble byte-identical final documents
///   however the run was interrupted.
///
/// # Errors
///
/// Propagates journal I/O errors.
pub fn run_resumable<T: Send + 'static>(
    catalog: Vec<(String, SharedJob<T>)>,
    seed: u64,
    workers: usize,
    opts: &SuperviseOpts,
    journal_path: &Path,
    resume: bool,
    to_artifacts: &(dyn Fn(&T) -> RunArtifacts + Sync),
) -> io::Result<Vec<(String, Result<RunArtifacts, String>)>> {
    let recovered = if resume {
        let r = load(journal_path)?;
        if r.dropped > 0 {
            eprintln!(
                "journal: dropped {} corrupt/truncated record(s) from {}",
                r.dropped,
                journal_path.display()
            );
        }
        r.latest_for_seed(seed)
    } else {
        if let Some(dir) = journal_path.parent() {
            if !dir.as_os_str().is_empty() {
                std::fs::create_dir_all(dir)?;
            }
        }
        File::create(journal_path)?; // truncate stale journal
        FxHashMap::default()
    };

    let mut done: FxHashMap<String, Result<RunArtifacts, String>> = FxHashMap::default();
    let mut to_run: Vec<(String, SharedJob<T>)> = Vec::new();
    for (id, job) in catalog.iter() {
        match recovered.get(id) {
            // A journaled success is complete; failures rerun (the fault
            // may have been the host's, not the experiment's).
            Some(JournalRecord { outcome: Ok(a), .. }) => {
                done.insert(id.clone(), Ok(a.clone()));
            }
            _ => to_run.push((id.clone(), job.clone())),
        }
    }
    if resume && !to_run.is_empty() {
        eprintln!(
            "resume: {} of {} experiments already journaled, running {}",
            done.len(),
            catalog.len(),
            to_run.len()
        );
    }

    let journal = Mutex::new(Journal::append_to(journal_path)?);
    let io_error: Mutex<Option<io::Error>> = Mutex::new(None);
    let ids: Vec<String> = to_run.iter().map(|(id, _)| id.clone()).collect();
    let jobs: Vec<SharedJob<T>> = to_run.into_iter().map(|(_, j)| j).collect();
    let results = runner::run_supervised(jobs, workers, opts, &|i, res: &Result<T, JobError>| {
        let rec = JournalRecord {
            id: ids[i].clone(),
            seed,
            outcome: match res {
                Ok(v) => Ok(to_artifacts(v)),
                Err(e) => Err(e.to_string()),
            },
        };
        if let Err(e) = journal.lock().expect("journal lock").append(&rec) {
            io_error.lock().expect("io-error lock").get_or_insert(e);
        }
        eprintln!(
            "done: {}{}",
            rec.id,
            match &rec.outcome {
                Ok(_) => String::new(),
                Err(e) => format!(" [FAILED: {e}]"),
            }
        );
    });
    if let Some(e) = io_error.into_inner().expect("io-error lock") {
        return Err(e);
    }

    for (id, res) in ids.into_iter().zip(results) {
        let outcome = match &res {
            Ok(v) => Ok(to_artifacts(v)),
            Err(e) => Err(e.to_string()),
        };
        done.insert(id, outcome);
    }

    Ok(catalog
        .into_iter()
        .map(|(id, _)| {
            let outcome = done.remove(&id).expect("every catalog id has an outcome");
            (id, outcome)
        })
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn temp_path(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!(
            "impulse-journal-test-{}-{name}",
            std::process::id()
        ));
        p
    }

    fn ok_record(id: &str, seed: u64, csv: &str) -> JournalRecord {
        let mut j = Json::obj();
        j.set("name", Json::Str(id.into()));
        j.set("ratio", Json::Float(0.25));
        JournalRecord {
            id: id.into(),
            seed,
            outcome: Ok(RunArtifacts {
                csv: csv.into(),
                json: j,
            }),
        }
    }

    #[test]
    fn append_and_load_round_trip() {
        let path = temp_path("roundtrip");
        let _ = std::fs::remove_file(&path);
        let recs = vec![
            ok_record("a", 7, "a,1,2"),
            JournalRecord {
                id: "b".into(),
                seed: 7,
                outcome: Err("job panicked: boom".into()),
            },
        ];
        let mut j = Journal::append_to(&path).expect("open");
        for r in &recs {
            j.append(r).expect("append");
        }
        let got = load(&path).expect("load");
        assert_eq!(got.records, recs);
        assert_eq!(got.dropped, 0);
        std::fs::remove_file(&path).expect("cleanup");
    }

    #[test]
    fn truncated_tail_record_is_dropped() {
        let path = temp_path("truncated");
        let _ = std::fs::remove_file(&path);
        let mut j = Journal::append_to(&path).expect("open");
        j.append(&ok_record("a", 1, "a,1")).expect("append");
        j.append(&ok_record("b", 1, "b,2")).expect("append");
        // Simulate a crash mid-append: cut the last line in half.
        let text = std::fs::read_to_string(&path).expect("read");
        let cut = text.len() - text.lines().last().expect("line").len() / 2;
        std::fs::write(&path, &text[..cut]).expect("truncate");
        let got = load(&path).expect("load");
        assert_eq!(got.records.len(), 1, "only the intact record survives");
        assert_eq!(got.records[0].id, "a");
        assert_eq!(got.dropped, 1);
        std::fs::remove_file(&path).expect("cleanup");
    }

    #[test]
    fn checksum_mismatch_is_dropped() {
        let path = temp_path("checksum");
        let _ = std::fs::remove_file(&path);
        let mut j = Journal::append_to(&path).expect("open");
        j.append(&ok_record("a", 1, "a,1")).expect("append");
        j.append(&ok_record("b", 1, "b,2")).expect("append");
        // Corrupt one byte inside the last record's payload, keeping the
        // line valid JSON (flip a digit of the seed).
        let text = std::fs::read_to_string(&path).expect("read");
        let corrupted = text.replacen("\"csv\":\"b,2\"", "\"csv\":\"b,9\"", 1);
        assert_ne!(text, corrupted, "corruption applied");
        std::fs::write(&path, corrupted).expect("write");
        let got = load(&path).expect("load");
        assert_eq!(got.records.len(), 1);
        assert_eq!(got.records[0].id, "a");
        assert_eq!(got.dropped, 1);
        std::fs::remove_file(&path).expect("cleanup");
    }

    #[test]
    fn duplicate_ids_last_write_wins_and_seed_filters() {
        let path = temp_path("dupes");
        let _ = std::fs::remove_file(&path);
        let mut j = Journal::append_to(&path).expect("open");
        j.append(&ok_record("a", 1, "a,old")).expect("append");
        j.append(&ok_record("a", 1, "a,new")).expect("append");
        j.append(&ok_record("b", 2, "b,other-seed"))
            .expect("append");
        let got = load(&path).expect("load");
        let latest = got.latest_for_seed(1);
        assert_eq!(latest.len(), 1, "other-seed record is ignored");
        let a = latest.get("a").expect("a present");
        assert_eq!(a.outcome.as_ref().expect("ok").csv, "a,new");
        std::fs::remove_file(&path).expect("cleanup");
    }

    #[test]
    fn missing_journal_is_a_fresh_run() {
        let got = load(Path::new("/nonexistent/impulse-journal")).expect("load");
        assert!(got.records.is_empty());
        assert_eq!(got.dropped, 0);
    }

    #[test]
    fn key_field_matches_experiment_identity_and_is_verified() {
        let rec = ok_record("fig1/impulse", 42, "row");
        let body = rec.to_json();
        assert_eq!(
            body.get("key").expect("key").as_str().expect("str"),
            ExperimentKey::from_id("fig1/impulse", 42).hex()
        );
        // A record whose key disagrees with (id, seed) is rejected even
        // when the rest of the body parses: forge a body carrying some
        // other experiment's key, wrapped in a fresh (valid) envelope.
        let mut forged = Json::obj();
        forged.set("schema", Json::Str(SCHEMA.into()));
        forged.set("id", Json::Str("fig1/impulse".into()));
        forged.set("seed", Json::UInt(42));
        forged.set("key", Json::Str(ExperimentKey::from_id("other", 42).hex()));
        forged.set("ok", Json::Bool(false));
        forged.set("error", Json::Str("x".into()));
        assert_eq!(JournalRecord::from_json(&forged), None);
        let mut line = Json::obj();
        line.set("sum", Json::UInt(fnv64(format!("{forged}").as_bytes())));
        line.set("record", forged);
        assert_eq!(JournalRecord::from_line(&format!("{line}")), None);
    }

    #[test]
    fn error_record_round_trips_display_string() {
        let rec = JournalRecord {
            id: "x".into(),
            seed: 3,
            outcome: Err("job exceeded its 250 ms deadline".into()),
        };
        let line = rec.to_line();
        let back = JournalRecord::from_line(&line).expect("parses");
        assert_eq!(back, rec);
    }

    #[test]
    fn run_resumable_skips_completed_and_reruns_failed() {
        let path = temp_path("resume");
        let _ = std::fs::remove_file(&path);
        let calls = Arc::new(std::sync::atomic::AtomicUsize::new(0));
        let catalog = |calls: &Arc<std::sync::atomic::AtomicUsize>| {
            ["a", "b", "c"]
                .iter()
                .map(|&id| {
                    let calls = calls.clone();
                    let job: SharedJob<String> = Arc::new(move || {
                        calls.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                        format!("{id}-value")
                    });
                    (id.to_string(), job)
                })
                .collect::<Vec<_>>()
        };
        let to_art = |v: &String| RunArtifacts {
            csv: v.clone(),
            json: Json::Str(v.clone()),
        };

        // Seed the journal with: "a" complete, "b" failed, "c" missing.
        let mut j = Journal::append_to(&path).expect("open");
        j.append(&ok_record("a", 5, "a-journaled")).expect("append");
        j.append(&JournalRecord {
            id: "b".into(),
            seed: 5,
            outcome: Err("job panicked: boom".into()),
        })
        .expect("append");

        let out = run_resumable(
            catalog(&calls),
            5,
            2,
            &SuperviseOpts::default(),
            &path,
            true,
            &to_art,
        )
        .expect("run");
        assert_eq!(
            calls.load(std::sync::atomic::Ordering::Relaxed),
            2,
            "only b (failed) and c (missing) ran"
        );
        assert_eq!(out[0].0, "a");
        assert_eq!(out[0].1.as_ref().expect("ok").csv, "a-journaled");
        assert_eq!(out[1].1.as_ref().expect("ok").csv, "b-value");
        assert_eq!(out[2].1.as_ref().expect("ok").csv, "c-value");

        // A fresh (non-resume) run truncates and reruns everything.
        let out = run_resumable(
            catalog(&calls),
            5,
            1,
            &SuperviseOpts::default(),
            &path,
            false,
            &to_art,
        )
        .expect("run");
        assert_eq!(calls.load(std::sync::atomic::Ordering::Relaxed), 5);
        assert_eq!(out[0].1.as_ref().expect("ok").csv, "a-value");
        let reloaded = load(&path).expect("load");
        assert_eq!(reloaded.records.len(), 3, "stale journal was truncated");
        std::fs::remove_file(&path).expect("cleanup");
    }
}
