//! The flight recorder: a fixed-size ring of recent request summaries so a
//! production incident leaves evidence.
//!
//! Each serving shard owns one [`FlightRecorder`]; every finished request
//! pushes a `Copy` [`FlightEntry`] (trace id, verb, outcome, queue wait,
//! service time, bytes).  The ring is dumped as JSON on graceful drain, on
//! SIGUSR1, and on demand through the `dump` protocol verb.

use std::collections::VecDeque;
use std::fmt::Write as _;
use std::sync::{Mutex, MutexGuard};

use crate::json;

/// Default number of entries retained per shard.
pub const DEFAULT_FLIGHT_CAPACITY: usize = 256;

fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// One finished request, as remembered by the flight recorder.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct FlightEntry {
    /// Trace id (the v2 request id).
    pub id: u64,
    /// Request verb (`map`, `batch`, `metrics`, ...).
    pub verb: &'static str,
    /// Outcome label (`ok`, `l0`, `error`, `rejected`, ...).
    pub outcome: &'static str,
    /// Time spent queued before a worker picked the job up, in microseconds
    /// (zero for inline/fast-path requests that never queue).
    pub queue_us: u64,
    /// End-to-end service time in microseconds.
    pub e2e_us: u64,
    /// Response bytes written for this request.
    pub bytes: u64,
    /// Completion timestamp, microseconds on the recorder owner's clock.
    pub at_us: u64,
}

/// A bounded ring of [`FlightEntry`] values; `record` is one short
/// uncontended mutex hold (the ring is per shard).
pub struct FlightRecorder {
    inner: Mutex<VecDeque<FlightEntry>>,
    capacity: usize,
}

impl FlightRecorder {
    /// Creates a recorder retaining the most recent `capacity` entries.
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        Self {
            inner: Mutex::new(VecDeque::with_capacity(capacity.min(4096))),
            capacity,
        }
    }

    /// Records one finished request, evicting the oldest entry when full.
    pub fn record(&self, entry: FlightEntry) {
        let mut ring = lock(&self.inner);
        if ring.len() == self.capacity {
            ring.pop_front();
        }
        ring.push_back(entry);
    }

    /// Copies out the retained entries, oldest first.
    pub fn snapshot(&self) -> Vec<FlightEntry> {
        lock(&self.inner).iter().copied().collect()
    }

    /// Drops all retained entries.
    pub fn clear(&self) {
        lock(&self.inner).clear();
    }
}

impl Default for FlightRecorder {
    fn default() -> Self {
        Self::new(DEFAULT_FLIGHT_CAPACITY)
    }
}

fn entry_json(out: &mut String, entry: &FlightEntry) {
    let _ = write!(out, "{{\"id\":{},\"verb\":", entry.id);
    json::escape_into(out, entry.verb);
    out.push_str(",\"outcome\":");
    json::escape_into(out, entry.outcome);
    let _ = write!(
        out,
        ",\"queue_us\":{},\"e2e_us\":{},\"bytes\":{},\"at_us\":{}}}",
        entry.queue_us, entry.e2e_us, entry.bytes, entry.at_us
    );
}

/// Renders a full flight-recorder dump: per-shard recent entries plus the
/// sampled trace events (pass an empty string to omit them).
///
/// Schema: `{"shards":[{"shard":N,"recent":[entry,...]}],"traces":[...]}`
/// where `traces` is the JSON produced by `TraceSink::to_json`.
pub fn dump_json(shards: &[(usize, Vec<FlightEntry>)], traces_json: &str) -> String {
    let mut out = String::from("{\"shards\":[");
    for (i, (shard, entries)) in shards.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{{\"shard\":{shard},\"recent\":[");
        for (j, entry) in entries.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            entry_json(&mut out, entry);
        }
        out.push_str("]}");
    }
    out.push_str("],\"traces\":");
    if traces_json.is_empty() {
        out.push_str("[]");
    } else {
        out.push_str(traces_json);
    }
    out.push('}');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(id: u64) -> FlightEntry {
        FlightEntry {
            id,
            verb: "map",
            outcome: "ok",
            queue_us: 5,
            e2e_us: 120,
            bytes: 64,
            at_us: 1_000 + id,
        }
    }

    #[test]
    fn ring_evicts_oldest() {
        let rec = FlightRecorder::new(2);
        rec.record(entry(1));
        rec.record(entry(2));
        rec.record(entry(3));
        let ids: Vec<u64> = rec.snapshot().iter().map(|e| e.id).collect();
        assert_eq!(ids, vec![2, 3]);
    }

    #[test]
    fn dump_is_valid_json() {
        let rec = FlightRecorder::new(4);
        rec.record(entry(9));
        let doc = dump_json(&[(0, rec.snapshot())], "");
        let parsed = json::parse(&doc).expect("valid json");
        let root = parsed.as_object().expect("object");
        let shards = root["shards"].as_array().expect("shards");
        assert_eq!(shards.len(), 1);
        let shard = shards[0].as_object().expect("shard object");
        assert_eq!(shard["shard"].as_u64(), Some(0));
        let recent = shard["recent"].as_array().expect("recent");
        assert_eq!(recent.len(), 1);
        assert_eq!(
            recent[0].as_object().expect("entry")["id"].as_u64(),
            Some(9)
        );
        assert_eq!(root["traces"].as_array().map(<[_]>::len), Some(0));
    }
}
