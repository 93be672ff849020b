//! The benchmark's vocabulary: workloads, end-to-end metrics with their
//! bounds, per-layer metrics. `BENCHMARK.json` at the repo root lists
//! the same names; a unit test below keeps the two in step.

pub struct Workload {
    pub name: &'static str,
    /// Read by the test that compares this table with `BENCHMARK.json`.
    #[cfg_attr(not(test), allow(dead_code))]
    pub why: &'static str,
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "enum-deep",
        why: "warm plans over MemStore, k=20000: nearly all time is core pop/divide/emit, no I/O, so a hot-path change shows here only",
    },
    Workload {
        name: "open-cold",
        why: "fresh local store open and cold plan per session, k=20: block fetch, cursor pull and plan build dominate, core under 2%",
    },
    Workload {
        name: "remote-cold",
        why: "same sessions as open-cold over tcp:// to a block server: each miss is a FETCH round trip, so local and remote reads move apart",
    },
    Workload {
        name: "wire-mixed",
        why: "EventServer with 1 worker: cached light sessions, every fifth behind a pipelined heavy burst, so p50 is reactor parking and p90 dispatch",
    },
];

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    /// `"lower"` or `"higher"`; read by the `BENCHMARK.json` test.
    #[cfg_attr(not(test), allow(dead_code))]
    pub better: &'static str,
    /// Share of the parent's median by which the metric may worsen;
    /// also the limit on the difference between two sets of runs of
    /// the same code (`--aa`).
    pub bound: f64,
}

pub const END_TO_END: [EndToEnd; 7] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "ttf_ms_p50",
        unit: "ms",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "ttk_ms_p50",
        unit: "ms",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "ttk_ms_p90",
        unit: "ms",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "matches_per_s",
        unit: "1/s",
        better: "higher",
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_heap_mb",
        unit: "MB",
        better: "lower",
        bound: 0.02,
    },
    EndToEnd {
        name: "allocs_per_session",
        unit: "count",
        better: "lower",
        bound: 0.02,
    },
];

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    #[cfg_attr(not(test), allow(dead_code))]
    pub better: &'static str,
}

const fn layer(name: &'static str, unit: &'static str, better: &'static str) -> PerLayer {
    PerLayer { name, unit, better }
}

/// Every traced run reports all of these. A figure a workload does not
/// exercise is reported as 0 (see the README's layer table).
pub const PER_LAYER: [PerLayer; 51] = [
    layer("closure.compute_s", "s", "lower"),
    layer("storage.write_store_s", "s", "lower"),
    layer("query.parse_us_p50", "us", "lower"),
    layer("storage.open_us_p50", "us", "lower"),
    layer("storage.fetch_miss_us_p50", "us", "lower"),
    layer("storage.fetch_hit_us_p50", "us", "lower"),
    layer("storage.cursor_pull_us_p50", "us", "lower"),
    layer("storage.block_reads_per_session", "count", "lower"),
    layer("storage.kb_read_per_session", "KB", "lower"),
    layer("storage.cache_hit_share", "share", "higher"),
    layer("storage.cache_evictions_per_session", "count", "lower"),
    layer("storage.remote_fetch_us_p50", "us", "lower"),
    layer("storage.remote_fetches_per_session", "count", "lower"),
    layer("storage.remote_kb_per_session", "KB", "lower"),
    layer("storage.remote_retries", "count", "lower"),
    layer("storage.remote_errors", "count", "lower"),
    layer("storage.remote_over_local_ttf", "ratio", "lower"),
    layer("net.blockd_rtt_us_p50", "us", "lower"),
    layer("runtime.rgraph_load_ms_p50", "ms", "lower"),
    layer("runtime.rgraph_edges_per_query", "count", "lower"),
    layer("core.edges_loaded_per_session", "count", "lower"),
    layer("core.plan_full_ms_p50", "ms", "lower"),
    layer("core.plan_lazy_ms_p50", "ms", "lower"),
    layer("core.stream_build_us_p50.topk", "us", "lower"),
    layer("core.stream_build_us_p50.topk-en", "us", "lower"),
    layer("core.first_match_us_p50.topk", "us", "lower"),
    layer("core.first_match_us_p50.topk-en", "us", "lower"),
    layer("core.page_ms_p50", "ms", "lower"),
    layer("core.delay_ns_per_match", "ns", "lower"),
    layer("core.allocs_per_match", "count", "lower"),
    layer("exec.run_roundtrip_us_p50", "us", "lower"),
    layer("service.parse_ns_p50", "ns", "lower"),
    layer("service.open_us_p50", "us", "lower"),
    layer("service.next_us_p50", "us", "lower"),
    layer("service.respond_us_p50", "us", "lower"),
    layer("service.render_ns_per_match", "ns", "lower"),
    layer("service.plan_hit_share", "share", "higher"),
    layer("service.result_cache_hit_share", "share", "higher"),
    layer("net.quiet_rtt_us_p50", "us", "lower"),
    layer("net.quiet_overhead_us_p50", "us", "lower"),
    layer("net.burst_wait_ms_p50", "ms", "lower"),
    layer("net.light_ttk_ms_p99", "ms", "lower"),
    layer("net.heavy_matches_per_s", "1/s", "higher"),
    layer("net.sheds", "count", "lower"),
    layer("net.protocol_errors", "count", "lower"),
    layer("env.nproc", "count", "higher"),
    layer("env.steal_share", "share", "lower"),
    layer("env.cpu_pressure_some", "%", "lower"),
    layer("env.ref_slowdown", "ratio", "lower"),
    layer("env.round_spread", "share", "lower"),
    layer("trace.overhead_share", "share", "lower"),
];

#[cfg(test)]
mod tests {
    use super::*;

    const MANIFEST: &str = include_str!("../../BENCHMARK.json");

    /// The text between `"<section>": [` and the next top-level `]`.
    fn section(name: &str) -> &'static str {
        let start = MANIFEST
            .find(&format!("\"{name}\": ["))
            .unwrap_or_else(|| panic!("BENCHMARK.json has no {name}"));
        let rest = &MANIFEST[start..];
        &rest[..rest.find("\n  ]").expect("section closes")]
    }

    #[test]
    fn benchmark_json_lists_the_same_workloads() {
        let s = section("workloads");
        assert_eq!(s.matches("\"name\"").count(), WORKLOADS.len());
        for w in &WORKLOADS {
            assert!(w.why.len() <= 200 && !w.why.contains('\n'));
            let entry = format!("{{\"name\": \"{}\", \"why\": \"{}\"}}", w.name, w.why);
            assert!(s.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
    }

    #[test]
    fn benchmark_json_lists_the_same_end_to_end_metrics_and_bounds() {
        let s = section("end_to_end");
        assert_eq!(s.matches("\"name\"").count(), END_TO_END.len());
        for m in &END_TO_END {
            assert!(m.bound > 0.0 && m.bound <= 0.25);
            let entry = format!(
                "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                m.name, m.unit, m.better, m.bound
            );
            assert!(s.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s" && m.better == "lower"));
    }

    #[test]
    fn benchmark_json_lists_the_same_per_layer_metrics() {
        let s = section("per_layer");
        assert_eq!(s.matches("\"name\"").count(), PER_LAYER.len());
        for m in &PER_LAYER {
            let entry = format!(
                "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                m.name, m.unit, m.better
            );
            assert!(s.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
    }

    #[test]
    fn names_are_unique_and_within_the_contract() {
        let mut names: Vec<&str> = WORKLOADS
            .iter()
            .map(|w| w.name)
            .chain(END_TO_END.iter().map(|m| m.name))
            .chain(PER_LAYER.iter().map(|m| m.name))
            .collect();
        for n in &names {
            assert!(n.len() <= 64);
            assert!(n.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(n
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total);
        for u in END_TO_END
            .iter()
            .map(|m| m.unit)
            .chain(PER_LAYER.iter().map(|m| m.unit))
        {
            assert!(u.len() <= 16);
            assert!(u
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
    }
}
