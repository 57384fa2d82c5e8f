//! Report lines the serving binaries print from the daemon's metrics
//! registry [`Snapshot`] (`fpfa-serve`'s drain report, `fpfa-loadgen`'s
//! server-side summary).  A metric the snapshot does not hold is an error,
//! never a silent zero, so a misspelt name cannot turn a gate into a pass.

use fpfa_obs::{MetricValue, Snapshot};

/// The value of the counter or gauge `name{labels}`.
pub fn count(snapshot: &Snapshot, name: &str, labels: &[(&str, &str)]) -> Result<u64, String> {
    match snapshot.get(name, labels) {
        Some(MetricValue::Counter(v) | MetricValue::Gauge(v)) => Ok(*v),
        Some(MetricValue::Histogram { .. }) => Err(format!("metric `{name}` is a histogram")),
        None => Err(format!("the server reports no metric `{name}` {labels:?}")),
    }
}

/// Fraction of full-mapping cache lookups that hit (`None` before the
/// first lookup).
pub fn hit_ratio(snapshot: &Snapshot) -> Result<Option<f64>, String> {
    let hits = count(snapshot, "cache.mapping.hits", &[])?;
    let total = hits + count(snapshot, "cache.mapping.misses", &[])?;
    Ok((total > 0).then(|| hits as f64 / total as f64))
}

/// The disk tier's counters: `persist: N load(s), N store(s), …`.
pub fn persist_line(snapshot: &Snapshot) -> Result<String, String> {
    let persist = |name| count(snapshot, name, &[]);
    Ok(format!(
        "persist: {} load(s), {} store(s), {} corrupt skipped, \
         {} warm-start entr(ies), {} compaction(s)",
        persist("persist.loads")?,
        persist("persist.stores")?,
        persist("persist.corrupt_skipped")?,
        persist("persist.warm_start_entries")?,
        persist("persist.compactions")?,
    ))
}

/// One `shard N: …` line per I/O shard, in shard order, each number
/// labelled by what it counts.
pub fn shard_lines(snapshot: &Snapshot) -> Result<Vec<String>, String> {
    let mut shards = snapshot
        .metrics
        .iter()
        .filter(|metric| metric.key.name == "shard.accepted")
        .map(|metric| {
            metric
                .key
                .labels
                .iter()
                .find(|(key, _)| key == "shard")
                .and_then(|(_, shard)| shard.parse::<usize>().ok())
                .ok_or_else(|| format!("`shard.accepted` without a shard number: {:?}", metric.key))
        })
        .collect::<Result<Vec<usize>, String>>()?;
    if shards.is_empty() {
        return Err("the server reports no `shard.accepted` metric".to_string());
    }
    shards.sort_unstable();
    shards
        .into_iter()
        .map(|shard| {
            let label = shard.to_string();
            let labels = [("shard", label.as_str())];
            let shard_count = |name| count(snapshot, name, &labels);
            Ok(format!(
                "shard {shard}: {} conn(s) adopted, {} open, {} frame(s) served, \
                 {} B in, {} B out",
                shard_count("shard.accepted")?,
                shard_count("shard.open")?,
                shard_count("shard.served")?,
                shard_count("shard.bytes_in")?,
                shard_count("shard.bytes_out")?,
            ))
        })
        .collect()
}
