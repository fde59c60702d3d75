//! A miniature log-structured merge key-value store — the stand-in for
//! RocksDB in the `fillsync` macrobenchmark (§7.4).
//!
//! Architecture mirrors the parts of RocksDB the benchmark exercises:
//! a single write-ahead log with *group commit* (a leader batches the
//! writers queued behind it, appends one record batch and issues one
//! `fdatasync`), an in-memory memtable, and memtable flushes into
//! immutable sorted-run files followed by WAL truncation. `fillsync`
//! (sync=1 random writes) makes the WAL append + fsync the critical
//! path, which is both CPU and I/O intensive — exactly the mix the paper
//! picks RocksDB for.

use std::{collections::BTreeMap, sync::Arc};

use ccnvme_obs::Histogram;
use ccnvme_runtime::{DetRng, RtCondvar, RtMutex};
use mqfs::FileSystem;

use crate::fio::WorkloadResult;

/// Bytes of memtable data that trigger a flush to a sorted run.
const MEMTABLE_LIMIT: u64 = 4 << 20;

struct Sst {
    /// In-memory index of the run (content also lives in the file).
    map: BTreeMap<Vec<u8>, Vec<u8>>,
}

struct KvSt {
    memtable: BTreeMap<Vec<u8>, Vec<u8>>,
    mem_bytes: u64,
    wal_ino: u64,
    wal_off: u64,
    wal_gen: u64,
    ssts: Vec<Sst>,
    /// Group-commit machinery.
    batch: Vec<(Vec<u8>, Vec<u8>)>,
    next_ticket: u64,
    done_ticket: u64,
    committing: bool,
}

/// The KV store.
pub struct MiniKv {
    fs: Arc<FileSystem>,
    st: RtMutex<KvSt>,
    cv: RtCondvar,
    /// Completed puts.
    pub puts: ccnvme_obs::Counter,
    /// Memtable flushes performed.
    pub flushes: ccnvme_obs::Counter,
}

fn encode_record(key: &[u8], value: &[u8]) -> Vec<u8> {
    let mut r = Vec::with_capacity(6 + key.len() + value.len());
    r.extend_from_slice(&(key.len() as u16).to_le_bytes());
    r.extend_from_slice(&(value.len() as u32).to_le_bytes());
    r.extend_from_slice(key);
    r.extend_from_slice(value);
    r
}

/// Decodes WAL records from a byte stream; stops at the first torn or
/// trailing-zero record (crash-recovery semantics).
pub fn decode_records(data: &[u8]) -> Vec<(Vec<u8>, Vec<u8>)> {
    let mut out = Vec::new();
    let mut off = 0usize;
    while off + 6 <= data.len() {
        let klen = u16::from_le_bytes([data[off], data[off + 1]]) as usize;
        let vlen = u32::from_le_bytes(data[off + 2..off + 6].try_into().expect("4 bytes")) as usize;
        if klen == 0 || off + 6 + klen + vlen > data.len() {
            break;
        }
        out.push((
            data[off + 6..off + 6 + klen].to_vec(),
            data[off + 6 + klen..off + 6 + klen + vlen].to_vec(),
        ));
        off += 6 + klen + vlen;
    }
    out
}

impl MiniKv {
    /// Creates (or re-opens) the store under `/kv` on `fs`, replaying
    /// any existing write-ahead log.
    pub fn open(fs: Arc<FileSystem>) -> Arc<MiniKv> {
        let _ = fs.mkdir_path("/kv");
        let (wal_ino, recovered) = match fs.resolve("/kv/wal-0") {
            Ok(ino) => {
                let (size, _, _) = fs.stat(ino);
                let data = fs.read(ino, 0, size as usize).unwrap_or_default();
                (ino, decode_records(&data))
            }
            Err(_) => (fs.create_path("/kv/wal-0").expect("create wal"), Vec::new()),
        };
        let mut memtable = BTreeMap::new();
        let mut mem_bytes = 0u64;
        for (k, v) in recovered {
            mem_bytes += (k.len() + v.len()) as u64;
            memtable.insert(k, v);
        }
        let (wal_off, _, _) = fs.stat(wal_ino);
        Arc::new(MiniKv {
            fs,
            st: RtMutex::new(KvSt {
                memtable,
                mem_bytes,
                wal_ino,
                wal_off,
                wal_gen: 0,
                ssts: Vec::new(),
                batch: Vec::new(),
                next_ticket: 0,
                done_ticket: 0,
                committing: false,
            }),
            cv: RtCondvar::new(),
            puts: ccnvme_obs::Counter::new(),
            flushes: ccnvme_obs::Counter::new(),
        })
    }

    /// Inserts `key → value` with a durable WAL commit (`fillsync`
    /// semantics). Concurrent writers group-commit behind a leader.
    pub fn put_sync(&self, key: &[u8], value: &[u8]) {
        let my_ticket;
        let lead = {
            let mut st = self.st.lock();
            my_ticket = st.next_ticket;
            st.next_ticket += 1;
            st.batch.push((key.to_vec(), value.to_vec()));
            if st.committing {
                false
            } else {
                st.committing = true;
                true
            }
        };
        if lead {
            self.lead_commits(my_ticket);
        } else {
            let mut st = self.st.lock();
            while st.done_ticket <= my_ticket {
                if !st.committing {
                    // The previous leader finished without covering us:
                    // take over leadership.
                    st.committing = true;
                    drop(st);
                    self.lead_commits(my_ticket);
                    return;
                }
                st = self.cv.wait(st);
            }
        }
        self.puts.inc();
    }

    /// Leader path: drain and commit batches until `my_ticket` is
    /// covered, then hand off.
    fn lead_commits(&self, my_ticket: u64) {
        loop {
            let (records, wal_ino, wal_off, covered) = {
                let mut st = self.st.lock();
                if st.batch.is_empty() {
                    st.committing = false;
                    drop(st);
                    self.cv.notify_all();
                    return;
                }
                let records = std::mem::take(&mut st.batch);
                (records, st.wal_ino, st.wal_off, st.next_ticket)
            };
            // Append the whole batch as one write, then one fdatasync —
            // RocksDB's group commit.
            let mut blob = Vec::new();
            for (k, v) in &records {
                blob.extend_from_slice(&encode_record(k, v));
            }
            self.fs.write(wal_ino, wal_off, &blob).expect("wal append");
            self.fs.fdatasync(wal_ino).expect("wal sync");
            // Apply to the memtable and wake the batch.
            let flush_needed = {
                let mut st = self.st.lock();
                st.wal_off += blob.len() as u64;
                for (k, v) in records {
                    st.mem_bytes += (k.len() + v.len()) as u64;
                    st.memtable.insert(k, v);
                }
                st.done_ticket = covered;
                st.mem_bytes >= MEMTABLE_LIMIT
            };
            self.cv.notify_all();
            if flush_needed {
                self.flush_memtable();
            }
            if covered > my_ticket {
                // Our put is durable; let a queued writer lead next.
                let mut st = self.st.lock();
                if st.batch.is_empty() {
                    st.committing = false;
                    drop(st);
                    self.cv.notify_all();
                    return;
                }
                // Keep leading: batches exist but their writers are
                // already waiting on tickets.
            }
        }
    }

    /// Writes the memtable into an immutable sorted run and truncates
    /// the WAL (new generation file).
    fn flush_memtable(&self) {
        let (table, gen) = {
            let mut st = self.st.lock();
            if st.mem_bytes < MEMTABLE_LIMIT {
                return; // Another leader flushed already.
            }
            st.wal_gen += 1;
            let table = std::mem::take(&mut st.memtable);
            st.mem_bytes = 0;
            (table, st.wal_gen)
        };
        // Serialize the run (sorted by key, BTreeMap order).
        let mut blob = Vec::new();
        for (k, v) in &table {
            blob.extend_from_slice(&encode_record(k, v));
        }
        let sst_ino = self
            .fs
            .create_path(&format!("/kv/sst-{gen:06}"))
            .expect("create sst");
        self.fs.write(sst_ino, 0, &blob).expect("sst write");
        self.fs.fsync(sst_ino).expect("sst fsync");
        // Switch to a fresh WAL, then retire the old one.
        let new_wal = self
            .fs
            .create_path(&format!("/kv/wal-{gen}"))
            .expect("create wal");
        self.fs.fsync(new_wal).expect("persist wal file");
        let old = {
            let mut st = self.st.lock();
            let old = st.wal_ino;
            st.wal_ino = new_wal;
            st.wal_off = 0;
            st.ssts.push(Sst { map: table });
            old
        };
        let _ = old;
        let _ = self
            .fs
            .unlink_path(&format!("/kv/wal-{gen_prev}", gen_prev = gen - 1));
        let kvdir = self.fs.resolve("/kv").expect("resolve");
        self.fs.fsync(kvdir).expect("persist wal switch");
        self.flushes.inc();
    }

    /// Point lookup: memtable first, then runs newest-to-oldest.
    pub fn get(&self, key: &[u8]) -> Option<Vec<u8>> {
        let st = self.st.lock();
        if let Some(v) = st.memtable.get(key) {
            return Some(v.clone());
        }
        for sst in st.ssts.iter().rev() {
            if let Some(v) = sst.map.get(key) {
                return Some(v.clone());
            }
        }
        None
    }

    /// Number of live sorted runs.
    pub fn sst_count(&self) -> usize {
        self.st.lock().ssts.len()
    }
}

/// Configuration of the fillsync benchmark.
#[derive(Debug, Clone)]
pub struct FillsyncConfig {
    /// Writer threads (the paper uses 24).
    pub threads: usize,
    /// Puts per thread.
    pub puts_per_thread: u64,
    /// Key size in bytes (paper: 16).
    pub key_size: usize,
    /// Value size in bytes (paper: 1024).
    pub value_size: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for FillsyncConfig {
    fn default() -> Self {
        FillsyncConfig {
            threads: 24,
            puts_per_thread: 100,
            key_size: 16,
            value_size: 1024,
            seed: 7,
        }
    }
}

/// Runs `db_bench fillsync`: random keys, 1 KB values, sync on every
/// write.
pub fn run_fillsync(fs: &Arc<FileSystem>, cfg: &FillsyncConfig) -> WorkloadResult {
    let kv = MiniKv::open(Arc::clone(fs));
    let hist = Arc::new(Histogram::new());
    let t0 = ccnvme_runtime::now();
    let mut handles = Vec::with_capacity(cfg.threads);
    for t in 0..cfg.threads {
        let kv = Arc::clone(&kv);
        let hist = Arc::clone(&hist);
        let cfg = cfg.clone();
        handles.push(ccnvme_runtime::spawn(&format!("kv-{t}"), t, move || {
            let mut rng = DetRng::derive(cfg.seed, t as u64);
            let mut key = vec![0u8; cfg.key_size];
            let value = vec![0xabu8; cfg.value_size];
            for _ in 0..cfg.puts_per_thread {
                rng.fill(&mut key);
                key[0] = key[0].max(1); // Keys must be non-empty/nonzero-length markers.
                let op0 = ccnvme_runtime::now();
                kv.put_sync(&key, &value);
                hist.record(ccnvme_runtime::now() - op0);
            }
        }));
    }
    for h in handles {
        h.join();
    }
    let elapsed = ccnvme_runtime::now() - t0;
    let ops = cfg.threads as u64 * cfg.puts_per_thread;
    WorkloadResult {
        ops,
        elapsed,
        bytes: ops * (cfg.key_size + cfg.value_size) as u64,
        latency: hist.summary(),
    }
}
