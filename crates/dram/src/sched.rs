//! DRAM access schedulers.
//!
//! Section 2.2 of the paper describes a low-level DRAM scheduler with three
//! goals: (1) reorder word-grained requests to exploit DRAM page (open-row)
//! locality, (2) schedule requests to exploit bank-level parallelism, and
//! (3) give priority to processor requests over controller-generated ones.
//! The paper's *published results* use a simple scheduler that issues
//! accesses in order; the smarter policies here are the "designed but not
//! yet complete" scheduler, exercised by the `ablation_dram` bench.
//! Processor-priority (goal 3) is realized one level up, in the memory
//! controller, which issues demand gathers ahead of background prefetch
//! batches.

use impulse_types::{AccessKind, Cycle, MAddr};

use crate::{BankMap, Dram};

/// How a batch of word-grained DRAM requests is ordered before issue.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum SchedulePolicy {
    /// Issue requests in arrival order (the paper's published
    /// configuration). Banks still overlap; no reordering is performed.
    #[default]
    InOrder,
    /// Reorder so requests to the same (bank, row) issue consecutively,
    /// maximizing open-row hits.
    OpenRowFirst,
    /// Reorder for row locality, then interleave across banks round-robin
    /// so independent banks work in parallel.
    BankParallel,
}

impl SchedulePolicy {
    /// All policies, for sweeps and ablations.
    pub const ALL: [SchedulePolicy; 3] = [
        SchedulePolicy::InOrder,
        SchedulePolicy::OpenRowFirst,
        SchedulePolicy::BankParallel,
    ];

    /// Short human-readable name.
    pub fn name(self) -> &'static str {
        match self {
            SchedulePolicy::InOrder => "in-order",
            SchedulePolicy::OpenRowFirst => "open-row-first",
            SchedulePolicy::BankParallel => "bank-parallel",
        }
    }
}

/// A batch scheduler over a [`Dram`] array.
///
/// # Examples
///
/// ```
/// use impulse_dram::{Dram, DramConfig, SchedulePolicy, Scheduler};
/// use impulse_types::{AccessKind, MAddr};
///
/// let mut dram = Dram::new(DramConfig::default());
/// let mut sched = Scheduler::new(SchedulePolicy::OpenRowFirst);
/// let gather: Vec<(MAddr, u64)> = (0..16).map(|i| (MAddr::new(i * 808), 8)).collect();
/// let done = sched.issue(&mut dram, &gather, AccessKind::Load, 0);
/// assert_eq!(dram.stats().reads, 16);
/// assert!(done >= 16, "one command per cycle");
/// ```
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Scheduler {
    policy: SchedulePolicy,
    /// Issue-order scratch reused by every [`Scheduler::issue`].
    order: Vec<(u64, u64, usize)>,
}

impl Scheduler {
    /// Creates a scheduler with the given reordering policy.
    pub fn new(policy: SchedulePolicy) -> Self {
        Self {
            policy,
            order: Vec::new(),
        }
    }

    /// The reordering policy in use.
    pub fn policy(&self) -> SchedulePolicy {
        self.policy
    }

    /// Issues a batch of requests, each with its own transfer size (the
    /// shape strided and direct remappings produce, whose contiguous
    /// segments vary in length), and returns the cycle its last request
    /// completes; an empty batch completes at `now`.
    ///
    /// Request *i* (in issue order) cannot start before `now + i`: the
    /// command bus accepts one command per cycle. Bank conflicts and the
    /// shared data bus serialize further, per the [`Dram`] model. The
    /// issue order is kept in a buffer this scheduler reuses, so a caller
    /// issuing one batch per shadow-line gather allocates nothing in
    /// steady state.
    pub fn issue(
        &mut self,
        dram: &mut Dram,
        reqs: &[(MAddr, u64)],
        kind: AccessKind,
        now: Cycle,
    ) -> Cycle {
        let mut last = now;
        if self.policy == SchedulePolicy::InOrder {
            for (slot, &(addr, bytes)) in reqs.iter().enumerate() {
                last = last.max(dram.access(addr, kind, bytes, now + slot as Cycle));
            }
            return last;
        }
        fill_order(self.policy, dram.bank_map(), reqs, &mut self.order);
        for (slot, &(_, _, idx)) in self.order.iter().enumerate() {
            let (addr, bytes) = reqs[idx];
            last = last.max(dram.access(addr, kind, bytes, now + slot as Cycle));
        }
        last
    }
}

/// Fills `order` with a reordering `policy`'s issue order: the last
/// field of the *k*-th entry is the input index of the request issued
/// *k*-th.
fn fill_order(
    policy: SchedulePolicy,
    map: BankMap,
    reqs: &[(MAddr, u64)],
    order: &mut Vec<(u64, u64, usize)>,
) {
    order.clear();
    // Group by (bank, row) for locality, in arrival order within a group.
    order.extend(
        reqs.iter()
            .enumerate()
            .map(|(i, &(a, _))| (map.bank_of(a.raw()), map.row_of(a.raw()), i)),
    );
    order.sort_unstable();
    if policy == SchedulePolicy::BankParallel {
        // Then round-robin the groups across banks so every bank starts
        // working at once: a bank's k-th request issues in round k, and
        // banks go in ascending order within a round.
        let mut prev_bank = None;
        let mut rank = 0;
        for e in order.iter_mut() {
            rank = if prev_bank == Some(e.0) { rank + 1 } else { 0 };
            prev_bank = Some(e.0);
            *e = (rank, e.0, e.2);
        }
        order.sort_unstable();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DramConfig;

    fn gather_addrs(cfg: &DramConfig) -> Vec<(MAddr, u64)> {
        // A pathological arrival order: alternates rows within one bank,
        // then scatters across banks.
        let bank_stride = cfg.row_bytes * cfg.banks;
        [
            0,
            bank_stride,     // same bank, different row
            8,               // back to row 0
            bank_stride + 8, // back to row 1
            cfg.row_bytes,   // bank 1
            cfg.row_bytes * 2,
            cfg.row_bytes + 16,
            16,
        ]
        .map(|a| (MAddr::new(a), 8))
        .to_vec()
    }

    fn total_time(policy: SchedulePolicy) -> Cycle {
        let cfg = DramConfig::default();
        let mut dram = Dram::new(cfg.clone());
        let reqs = gather_addrs(&cfg);
        Scheduler::new(policy).issue(&mut dram, &reqs, AccessKind::Load, 0)
    }

    #[test]
    fn reordering_beats_in_order_on_row_thrash() {
        let in_order = total_time(SchedulePolicy::InOrder);
        let row_first = total_time(SchedulePolicy::OpenRowFirst);
        assert!(
            row_first < in_order,
            "open-row-first ({row_first}) should beat in-order ({in_order})"
        );
    }

    #[test]
    fn bank_parallel_not_worse_than_row_first() {
        let row_first = total_time(SchedulePolicy::OpenRowFirst);
        let parallel = total_time(SchedulePolicy::BankParallel);
        assert!(parallel <= row_first);
    }

    #[test]
    fn completions_cover_every_request() {
        // `issue` returns the last completion of the batch replayed one
        // request at a time in the policy's issue order.
        let cfg = DramConfig::default();
        let reqs = gather_addrs(&cfg);
        let mut order = Vec::new();
        for policy in SchedulePolicy::ALL {
            let mut dram = Dram::new(cfg.clone());
            let done = Scheduler::new(policy).issue(&mut dram, &reqs, AccessKind::Load, 0);
            assert_eq!(dram.stats().reads, reqs.len() as u64);

            let issue_order: Vec<usize> = if policy == SchedulePolicy::InOrder {
                (0..reqs.len()).collect()
            } else {
                fill_order(policy, dram.bank_map(), &reqs, &mut order);
                order.iter().map(|e| e.2).collect()
            };
            let mut replay = Dram::new(cfg.clone());
            let last = issue_order
                .iter()
                .enumerate()
                .map(|(slot, &i)| {
                    let (addr, bytes) = reqs[i];
                    replay.access(addr, AccessKind::Load, bytes, slot as Cycle)
                })
                .max();
            assert_eq!(Some(done), last, "{}", policy.name());
        }
    }

    #[test]
    fn empty_batch_completes_immediately() {
        let mut dram = Dram::new(DramConfig::default());
        let done = Scheduler::default().issue(&mut dram, &[], AccessKind::Load, 42);
        assert_eq!(done, 42);
        assert_eq!(dram.stats().reads, 0);
    }

    #[test]
    fn row_grouping_increases_row_hits() {
        let cfg = DramConfig::default();
        let reqs = gather_addrs(&cfg);

        let mut d1 = Dram::new(cfg.clone());
        Scheduler::new(SchedulePolicy::InOrder).issue(&mut d1, &reqs, AccessKind::Load, 0);
        let mut d2 = Dram::new(cfg);
        Scheduler::new(SchedulePolicy::OpenRowFirst).issue(&mut d2, &reqs, AccessKind::Load, 0);

        assert!(d2.stats().row_hits > d1.stats().row_hits);
    }

    #[test]
    fn mixed_size_batches_account_all_bytes() {
        let cfg = DramConfig::default();
        let mut dram = Dram::new(cfg);
        // A strided remap produces uneven contiguous segments.
        let reqs = [
            (MAddr::new(0), 64u64),
            (MAddr::new(4096), 64),
            (MAddr::new(8192), 128),
            (MAddr::new(8320), 8),
        ];
        Scheduler::new(SchedulePolicy::BankParallel).issue(&mut dram, &reqs, AccessKind::Load, 0);
        assert_eq!(dram.stats().reads, 4);
        assert_eq!(dram.stats().bytes, 64 + 64 + 128 + 8);
    }

    #[test]
    fn bank_parallel_matches_per_bank_queue_reference() {
        // Reference: per-bank queues filled from the (bank, row)-sorted
        // batch, drained one request per bank per round.
        let cfg = DramConfig::default();
        let map = BankMap::new(cfg.banks, cfg.row_bytes);
        let mut x = 0x2545_F491_4F6C_DD1Du64;
        let mut order = Vec::new();
        for _ in 0..200 {
            let n = 1 + x % 40;
            let reqs: Vec<(MAddr, u64)> = (0..n)
                .map(|_| {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    (MAddr::new(x % (1 << 20)), 8)
                })
                .collect();
            let mut sorted: Vec<usize> = (0..reqs.len()).collect();
            sorted.sort_by_key(|&i| (map.bank_of(reqs[i].0.raw()), map.row_of(reqs[i].0.raw()), i));
            let mut queues = vec![Vec::new(); cfg.banks as usize];
            for i in sorted {
                queues[map.bank_of(reqs[i].0.raw()) as usize].push(i);
            }
            let queues = &queues;
            let expected: Vec<usize> = (0..reqs.len())
                .flat_map(|k| queues.iter().filter_map(move |q| q.get(k).copied()))
                .collect();
            fill_order(SchedulePolicy::BankParallel, map, &reqs, &mut order);
            let got: Vec<usize> = order.iter().map(|e| e.2).collect();
            assert_eq!(got, expected);
        }
    }

    #[test]
    fn policy_names_are_distinct() {
        let names: Vec<_> = SchedulePolicy::ALL.iter().map(|p| p.name()).collect();
        assert_eq!(names.len(), 3);
        assert!(names.iter().all(|n| !n.is_empty()));
    }
}
