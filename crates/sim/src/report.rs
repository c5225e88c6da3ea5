//! Measurement reports in the shape of the paper's tables.
//!
//! Tables 1 and 2 report, per configuration: execution time (cycles), L1 /
//! L2 / memory hit ratios with *total loads* as the divisor, the average
//! load time, and the speedup over the "Conventional, no prefetch" row.

use core::fmt;

use impulse_cache::{CacheStats, TlbStats};
use impulse_core::{DescStats, McStats, PgTblStats, PrefetchStats};
use impulse_dram::DramStats;
use impulse_obs::{Attribution, Histogram, Json, MetricValue, MetricsRegistry};

use crate::bus::BusStats;
use crate::system::{MemStats, MemorySystem};

/// A complete measurement over one run epoch.
#[derive(Clone, Debug)]
pub struct Report {
    /// Configuration label.
    pub name: String,
    /// Cycles elapsed in the epoch.
    pub cycles: u64,
    /// Instructions retired.
    pub instructions: u64,
    /// Cycles spent inside OS traps, downloads, and flushes.
    pub syscall_cycles: u64,
    /// Demand access counters.
    pub mem: MemStats,
    /// L1 cache internals.
    pub l1: CacheStats,
    /// L2 cache internals.
    pub l2: CacheStats,
    /// TLB internals.
    pub tlb: TlbStats,
    /// System bus counters.
    pub bus: BusStats,
    /// DRAM counters.
    pub dram: DramStats,
    /// Controller front-end counters.
    pub mc: McStats,
    /// Controller prefetch SRAM counters.
    pub pf: PrefetchStats,
    /// Aggregated shadow descriptor counters.
    pub desc: DescStats,
    /// Controller page table counters.
    pub pgtbl: PgTblStats,
    /// Where every demand-access cycle went, by pipeline stage. The stage
    /// totals sum to `mem.load_cycles + mem.store_cycles` exactly.
    pub attr: Attribution,
    /// Every metric in the hierarchy (counters, gauges, and per-level
    /// latency histograms) under component-prefixed names.
    pub metrics: MetricsRegistry,
}

impl Report {
    /// Gathers a report from the memory system.
    pub fn collect(
        name: String,
        cycles: u64,
        instructions: u64,
        syscall_cycles: u64,
        ms: &MemorySystem,
    ) -> Self {
        Self {
            name,
            cycles,
            instructions,
            syscall_cycles,
            mem: ms.stats(),
            l1: ms.l1().stats(),
            l2: ms.l2().stats(),
            tlb: ms.tlb().stats(),
            bus: ms.bus().stats(),
            dram: ms.mc().dram().stats(),
            mc: ms.mc().stats(),
            pf: ms.mc().prefetch_stats(),
            desc: ms.mc().desc_stats(),
            pgtbl: ms.mc().pgtbl_stats(),
            attr: ms.attribution(),
            metrics: ms.observe_all(),
        }
    }

    /// Serialises the full report as a JSON value (schema
    /// `impulse-report-v1`): headline numbers, the demand-cycle
    /// attribution table, every per-level latency histogram with
    /// count/sum/min/max/mean and p50/p90/p99, and the flat
    /// counter/gauge registry.
    pub fn to_json(&self) -> Json {
        let mut root = Json::obj();
        root.set("schema", Json::Str("impulse-report-v1".into()));
        root.set("name", Json::Str(self.name.clone()));
        root.set("cycles", Json::UInt(self.cycles));
        root.set("instructions", Json::UInt(self.instructions));
        root.set("syscall_cycles", Json::UInt(self.syscall_cycles));

        let mut mem = Json::obj();
        mem.set("loads", Json::UInt(self.mem.loads));
        mem.set("stores", Json::UInt(self.mem.stores));
        mem.set("load_cycles", Json::UInt(self.mem.load_cycles));
        mem.set("store_cycles", Json::UInt(self.mem.store_cycles));
        mem.set("l1_ratio", Json::Float(self.mem.l1_ratio()));
        mem.set("l2_ratio", Json::Float(self.mem.l2_ratio()));
        mem.set("mem_ratio", Json::Float(self.mem.mem_ratio()));
        mem.set("avg_load_time", Json::Float(self.mem.avg_load_time()));
        mem.set("tlb_penalties", Json::UInt(self.mem.tlb_penalties));
        mem.set("remap_faults", Json::UInt(self.mem.remap_faults));
        root.set("mem", mem);

        let mut attr = Json::obj();
        for (stage, cycles) in self.attr.entries() {
            attr.set(stage.name(), Json::UInt(cycles));
        }
        attr.set("total", Json::UInt(self.attr.total()));
        attr.set(
            "demand_cycles",
            Json::UInt(self.mem.load_cycles + self.mem.store_cycles),
        );
        root.set("attribution", attr);

        let mut hists = Json::obj();
        let mut counters = Json::obj();
        let mut gauges = Json::obj();
        for (name, v) in self.metrics.iter() {
            match v {
                MetricValue::Histogram(h) => {
                    hists.set(name, histogram_json(h));
                }
                MetricValue::Counter(c) => {
                    counters.set(name, Json::UInt(*c));
                }
                MetricValue::Gauge(g) => {
                    gauges.set(name, Json::Float(*g));
                }
            }
        }
        root.set("histograms", hists);
        root.set("counters", counters);
        root.set("gauges", gauges);
        root
    }

    /// Speedup of this configuration relative to `baseline` (the paper's
    /// convention: `baseline.time / self.time`).
    pub fn speedup_over(&self, baseline: &Report) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            baseline.cycles as f64 / self.cycles as f64
        }
    }

    /// One row in the paper's table format:
    /// time, L1/L2/mem hit ratios, average load time, speedup.
    pub fn paper_row(&self, baseline: &Report) -> String {
        format!(
            "{:<28} {:>12} {:>7.1}% {:>7.1}% {:>7.1}% {:>9.2} {:>8.2}",
            self.name,
            self.cycles,
            100.0 * self.mem.l1_ratio(),
            100.0 * self.mem.l2_ratio(),
            100.0 * self.mem.mem_ratio(),
            self.mem.avg_load_time(),
            self.speedup_over(baseline),
        )
    }

    /// Header matching [`Report::paper_row`].
    pub fn paper_header() -> String {
        format!(
            "{:<28} {:>12} {:>8} {:>8} {:>8} {:>9} {:>8}",
            "configuration", "cycles", "L1 hit", "L2 hit", "mem hit", "avg load", "speedup"
        )
    }

    /// CSV header matching [`Report::csv_row`], for spreadsheet/plotting
    /// pipelines.
    pub fn csv_header() -> &'static str {
        "name,cycles,instructions,loads,stores,l1_ratio,l2_ratio,mem_ratio,\
         avg_load_time,tlb_penalties,bus_bytes,dram_bytes,dram_row_hit_ratio,\
         mc_gathers,mc_desc_buffer_hits,mc_pf_hits,syscall_cycles"
    }

    /// One CSV record of the headline metrics.
    pub fn csv_row(&self) -> String {
        format!(
            "{},{},{},{},{},{:.6},{:.6},{:.6},{:.4},{},{},{},{:.6},{},{},{},{}",
            self.name,
            self.cycles,
            self.instructions,
            self.mem.loads,
            self.mem.stores,
            self.mem.l1_ratio(),
            self.mem.l2_ratio(),
            self.mem.mem_ratio(),
            self.mem.avg_load_time(),
            self.mem.tlb_penalties,
            self.bus.bytes,
            self.dram.bytes,
            self.dram.row_hit_ratio(),
            self.desc.gathers,
            self.desc.buffer_hits,
            self.pf.hits,
            self.syscall_cycles,
        )
    }
}

fn histogram_json(h: &Histogram) -> Json {
    let mut o = Json::obj();
    o.set("count", Json::UInt(h.count()));
    o.set("sum", Json::UInt(h.sum()));
    o.set("min", Json::UInt(h.min()));
    o.set("max", Json::UInt(h.max()));
    o.set("mean", Json::Float(h.mean()));
    o.set("p50", Json::UInt(h.p50()));
    o.set("p90", Json::UInt(h.p90()));
    o.set("p99", Json::UInt(h.p99()));
    o
}

impl fmt::Display for Report {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "[{}]", self.name)?;
        writeln!(
            f,
            "  cycles {}  instructions {}  (syscall cycles {})",
            self.cycles, self.instructions, self.syscall_cycles
        )?;
        writeln!(
            f,
            "  loads {}  L1 {:.1}%  L2 {:.1}%  mem {:.1}%  avg load {:.2} cyc",
            self.mem.loads,
            100.0 * self.mem.l1_ratio(),
            100.0 * self.mem.l2_ratio(),
            100.0 * self.mem.mem_ratio(),
            self.mem.avg_load_time()
        )?;
        writeln!(
            f,
            "  bus {} B  dram {} B (row hits {:.0}%)  tlb penalties {}",
            self.bus.bytes,
            self.dram.bytes,
            100.0 * self.dram.row_hit_ratio(),
            self.mem.tlb_penalties
        )?;
        write!(
            f,
            "  mc: {} reads / {} shadow reads, {} gathers, pf hits {}, desc buffer hits {}",
            self.mc.line_reads,
            self.mc.shadow_line_reads,
            self.desc.gathers,
            self.pf.hits,
            self.desc.buffer_hits
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SystemConfig;
    use crate::machine::Machine;

    fn sample() -> Report {
        let mut m = Machine::new(&SystemConfig::paint_small());
        let r = m.alloc_region(4096, 8).unwrap();
        for i in 0..64 {
            m.load(r.start().add(i * 8));
        }
        m.report("sample")
    }

    #[test]
    fn speedup_is_relative_time() {
        let a = sample();
        let mut b = a.clone();
        b.cycles = a.cycles * 2;
        assert!((b.speedup_over(&a) - 0.5).abs() < 1e-9);
        assert!((a.speedup_over(&b) - 2.0).abs() < 1e-9);
        assert!((a.speedup_over(&a) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn display_and_row_are_nonempty() {
        let r = sample();
        assert!(!format!("{r}").is_empty());
        let row = r.paper_row(&r);
        assert!(row.contains("sample"));
        assert!(!Report::paper_header().is_empty());
    }

    #[test]
    fn zero_cycles_speedup_is_zero() {
        let mut r = sample();
        r.cycles = 0;
        let base = sample();
        assert_eq!(r.speedup_over(&base), 0.0);
    }

    #[test]
    fn empty_epoch_report_is_all_zeros_and_serialisable() {
        // A report taken immediately after reset: every denominator is
        // zero, and nothing may divide by it or emit non-finite JSON.
        let mut m = Machine::new(&SystemConfig::paint_small());
        let r = m.alloc_region(4096, 8).unwrap();
        m.load(r.start());
        m.reset_stats();
        let rep = m.report("empty");
        assert_eq!(rep.cycles, 0);
        assert_eq!(rep.mem.l1_ratio(), 0.0);
        assert_eq!(rep.mem.l2_ratio(), 0.0);
        assert_eq!(rep.mem.mem_ratio(), 0.0);
        assert_eq!(rep.mem.avg_load_time(), 0.0);
        assert_eq!(rep.speedup_over(&rep), 0.0);
        assert_eq!(rep.attr.total(), 0);
        assert_eq!(rep.attr.share(impulse_obs::Stage::Dram), 0.0);
        let text = format!("{}", rep.to_json());
        assert!(!text.contains("NaN") && !text.contains("inf"));
        let parsed = Json::parse(&text).expect("empty report is valid JSON");
        assert_eq!(parsed.get("cycles").and_then(Json::as_u64), Some(0));
        let h = parsed
            .get("histograms")
            .and_then(|h| h.get("mem.lat_load"))
            .expect("histograms present even when empty");
        assert_eq!(h.get("count").and_then(Json::as_u64), Some(0));
    }

    #[test]
    fn json_round_trips_component_stats() {
        let rep = sample();
        let text = format!("{:#}", rep.to_json());
        let parsed = Json::parse(&text).expect("report JSON parses");
        assert_eq!(
            parsed.get("schema").and_then(Json::as_str),
            Some("impulse-report-v1")
        );
        assert_eq!(
            parsed.get("cycles").and_then(Json::as_u64),
            Some(rep.cycles)
        );
        // Counters survive exactly and match the component-local stats
        // the report was collected from.
        let counters = parsed.get("counters").expect("counters object");
        assert_eq!(
            counters.get("l1.cache.loads").and_then(Json::as_u64),
            Some(rep.l1.loads)
        );
        assert_eq!(
            counters.get("dram.reads").and_then(Json::as_u64),
            Some(rep.dram.reads)
        );
        assert_eq!(
            counters.get("mem.loads").and_then(Json::as_u64),
            Some(rep.mem.loads)
        );
        // The attribution table sums to the epoch's demand cycles.
        let attr = parsed.get("attribution").expect("attribution object");
        assert_eq!(
            attr.get("total").and_then(Json::as_u64),
            Some(rep.mem.load_cycles + rep.mem.store_cycles)
        );
        assert_eq!(
            attr.get("total").and_then(Json::as_u64),
            attr.get("demand_cycles").and_then(Json::as_u64)
        );
        // Per-level histograms carry the quantile fields.
        let hl = parsed
            .get("histograms")
            .and_then(|h| h.get("mem.lat_load"))
            .expect("load latency histogram");
        assert_eq!(hl.get("count").and_then(Json::as_u64), Some(rep.mem.loads));
        for q in ["p50", "p90", "p99"] {
            assert!(hl.get(q).and_then(Json::as_u64).is_some(), "missing {q}");
        }
    }

    #[test]
    fn collect_matches_component_stats() {
        let mut m = Machine::new(&SystemConfig::paint_small());
        let r = m.alloc_region(64 * 1024, 8).unwrap();
        for i in 0..256 {
            m.load(r.start().add(i * 40));
        }
        let rep = m.report("roundtrip");
        let ms = m.memory();
        assert_eq!(rep.mem, ms.stats());
        assert_eq!(rep.l1, ms.l1().stats());
        assert_eq!(rep.l2, ms.l2().stats());
        assert_eq!(rep.tlb, ms.tlb().stats());
        assert_eq!(rep.bus, ms.bus().stats());
        assert_eq!(rep.dram, ms.mc().dram().stats());
        assert_eq!(rep.mc, ms.mc().stats());
        assert_eq!(rep.pgtbl, ms.mc().pgtbl_stats());
        assert_eq!(rep.attr, ms.attribution());
        assert_eq!(rep.metrics, ms.observe_all());
    }

    #[test]
    fn csv_row_matches_header_arity() {
        let r = sample();
        let header_cols = Report::csv_header().split(',').count();
        let row_cols = r.csv_row().split(',').count();
        assert_eq!(header_cols, row_cols);
        assert!(r.csv_row().starts_with("sample,"));
    }
}
