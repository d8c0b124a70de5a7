//! Running the whole corpus: all six data sets, all rate classes,
//! sequentially or fanned across a worker pool ([`crate::parallel`]).

use crate::experiment::{run_pair, PairRunConfig, PairRunResult};
use crate::parallel;
use turb_media::corpus;

/// Results of running every pair in Table 1 (13 pair runs, 26 clips).
#[derive(Debug, Default)]
pub struct CorpusResult {
    /// One entry per pair run, ordered (set, class high→low as in
    /// Table 1).
    pub runs: Vec<PairRunResult>,
    /// Worker threads the corpus was executed with (1 = sequential).
    /// Descriptive only — results are identical for every value.
    pub threads: usize,
}

impl CorpusResult {
    /// The run for (set, class), if present.
    pub fn run(&self, set_id: u8, class: turb_media::RateClass) -> Option<&PairRunResult> {
        self.runs
            .iter()
            .find(|r| r.set_id == set_id && r.class == class)
    }

    /// Fold every per-run report into one corpus-wide [`RunReport`].
    /// `None` when no run collected telemetry.
    pub fn aggregate_report(&self) -> Option<turb_obs::RunReport> {
        let mut out = turb_obs::RunReport::default();
        let mut absorbed = 0usize;
        for run in &self.runs {
            let Some(t) = &run.telemetry else { continue };
            out.absorb(&t.report);
            absorbed += 1;
        }
        if absorbed == 0 {
            return None;
        }
        out.threads = self.threads.max(1) as u64;
        Some(out)
    }

    /// Merge every per-run metrics registry into one. Empty when no
    /// run collected telemetry.
    ///
    /// Iterating `runs` (always in canonical Table-1 order, however
    /// many workers executed them) and resolving symbols by name during
    /// the merge is what makes the aggregate independent of worker
    /// scheduling: each per-run registry interned its labels in its own
    /// order, but the merged registry sees them in run order.
    pub fn aggregate_metrics(&self) -> turb_obs::MetricsRegistry {
        let mut out = turb_obs::MetricsRegistry::new();
        for run in &self.runs {
            if let Some(t) = &run.telemetry {
                out.merge(&t.metrics);
            }
        }
        out
    }

    /// Merge every per-run time-series dump into one corpus-wide dump,
    /// aligning series on absolute window indices (counters add,
    /// gauges take the max). `None` when no run recorded time-series.
    /// Merging in canonical run order keeps the aggregate byte-stable
    /// across worker counts, like [`CorpusResult::aggregate_metrics`].
    pub fn aggregate_series(&self) -> Option<turb_obs::SeriesDump> {
        let mut out: Option<turb_obs::SeriesDump> = None;
        for run in &self.runs {
            let Some(series) = run.telemetry.as_ref().and_then(|t| t.series.as_ref()) else {
                continue;
            };
            match out.as_mut() {
                Some(acc) => acc.merge(series),
                None => out = Some(series.clone()),
            }
        }
        out
    }
}

/// All pair-run configurations for the corpus under a base seed.
pub fn corpus_configs(base_seed: u64) -> Vec<PairRunConfig> {
    let mut configs = Vec::new();
    for set in corpus::table1() {
        for pair in &set.pairs {
            // Derive a stable per-run seed from set and class.
            let class_tag = match pair.class() {
                turb_media::RateClass::Low => 1u64,
                turb_media::RateClass::High => 2,
                turb_media::RateClass::VeryHigh => 3,
            };
            let seed = base_seed
                .wrapping_mul(0x9e37_79b9_7f4a_7c15)
                .wrapping_add(u64::from(set.id) * 97 + class_tag);
            configs.push(PairRunConfig::new(seed, set.id, pair.clone()));
        }
    }
    configs
}

/// Run the full corpus sequentially (deterministic, single thread).
pub fn run_corpus(base_seed: u64) -> CorpusResult {
    run_configs(&corpus_configs(base_seed))
}

/// Run an arbitrary set of pair configurations sequentially (used for
/// subset experiments and fast tests).
pub fn run_configs(configs: &[PairRunConfig]) -> CorpusResult {
    CorpusResult {
        runs: configs.iter().map(run_pair).collect(),
        threads: 1,
    }
}

/// The corpus configurations restricted to the given data sets.
pub fn corpus_configs_for_sets(base_seed: u64, sets: &[u8]) -> Vec<PairRunConfig> {
    corpus_configs(base_seed)
        .into_iter()
        .filter(|c| sets.contains(&c.set_id))
        .collect()
}

/// Run the full corpus with up to `threads` workers. Each simulation
/// is seeded independently and results merge back in canonical Table-1
/// order, so the result is byte-identical to [`run_corpus`] —
/// parallelism only changes wall-clock time. `threads == 0` is auto,
/// `min(available cores, runs)`; `1` takes the sequential path.
pub fn run_corpus_parallel(base_seed: u64, threads: usize) -> CorpusResult {
    run_configs_parallel(&corpus_configs(base_seed), threads)
}

/// Run an arbitrary set of pair configurations with up to `threads`
/// workers; ordering and results match [`run_configs`]. `0` is auto,
/// `min(available cores, configs)`; one thread, a single-core host or a
/// single-config corpus takes the sequential path rather than spawning
/// idle workers; a panicking run fails the whole corpus
/// (the panic propagates) instead of hanging the pool.
pub fn run_configs_parallel(configs: &[PairRunConfig], threads: usize) -> CorpusResult {
    let threads = parallel::effective_threads(threads, configs.len());
    if threads <= 1 {
        return run_configs(configs);
    }
    CorpusResult {
        runs: parallel::map_ordered(configs, threads, run_pair),
        threads,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use turb_media::RateClass;

    #[test]
    fn configs_cover_the_whole_corpus() {
        let configs = corpus_configs(1);
        assert_eq!(configs.len(), 13); // 5 sets × 2 classes + set 6 × 3
        let very_high = configs
            .iter()
            .filter(|c| c.pair.class() == RateClass::VeryHigh)
            .count();
        assert_eq!(very_high, 1);
        // Seeds are pairwise distinct.
        let mut seeds: Vec<u64> = configs.iter().map(|c| c.seed).collect();
        seeds.sort_unstable();
        seeds.dedup();
        assert_eq!(seeds.len(), 13);
    }

    #[test]
    fn different_base_seeds_give_different_run_seeds() {
        let a = corpus_configs(1);
        let b = corpus_configs(2);
        assert!(a.iter().zip(&b).all(|(x, y)| x.seed != y.seed));
    }
}
