//! Adaptive stack sampling (Section III.B, Fig. 7–8).
//!
//! Periodic snapshots of a thread's Java frames discover **stack-invariant
//! references**: slots that keep holding the same object reference across samples.
//! Invariants are the likely entry points of the thread's sticky set (a linked list's
//! head, a tree's root, a hash table's entry array).
//!
//! All four of the paper's optimizations are implemented:
//!
//! 1. **Timer-based sampling** — [`StackSampler::maybe_sample`] only fires when the
//!    simulated clock passed the configured gap; execution is otherwise overhead-free.
//! 2. **Two-phase scanning** — the top-down phase walks from the top frame to the
//!    first frame whose `visited` flag is set (only that one is compared; everything
//!    below is known untouched since its last sample, because any return through it
//!    would have pushed fresh unvisited frames). The bottom-up phase then captures the
//!    unvisited frames above it and sets their flags.
//! 3. **Lazy extraction** — a frame's first visit stores its slots in raw form; the
//!    reference-extraction work is spent only if the frame survives to a second visit.
//!    Temporary top frames never pay extraction. (The immediate-extraction baseline of
//!    Table V is available via [`crate::config::StackSamplingConfig::lazy_extraction`].)
//! 4. **Comparison by probing** — the old (smaller) sample probes the new frame; slots
//!    that changed are removed, so repeatedly compared frames shrink toward their
//!    invariant core.
//!
//! A slot is reported as **invariant** once it has survived at least one comparison,
//! i.e. it held the same reference in two samples separated by the timer gap.

use std::collections::HashMap;

use serde::{Deserialize, Serialize};

use jessy_gos::{CostModel, ObjectId};
use jessy_net::{ClockHandle, SimNanos};
use jessy_stack::{JavaStack, Slot};

use crate::config::StackSamplingConfig;

/// One surviving (slot, reference) of a frame's sample.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct RefSlot {
    slot: usize,
    obj: ObjectId,
}

#[derive(Debug, Clone)]
enum SampleState {
    /// Captured in native form; content not yet extracted (lazy mode, first visit).
    Raw(Vec<Slot>),
    /// Extracted reference slots, shrunk by successive probings.
    Extracted(Vec<RefSlot>),
}

#[derive(Debug, Clone)]
struct FrameRecord {
    state: SampleState,
    depth: usize,
    /// Comparisons survived (0 = sampled once, never compared).
    comparisons: u32,
}

/// A stack-invariant reference discovered by the sampler.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct StackInvariant {
    /// Frame depth from the bottom (larger = nearer the top).
    pub depth: usize,
    /// Slot index within the frame.
    pub slot: usize,
    /// The invariant object reference.
    pub obj: ObjectId,
    /// Number of comparisons the reference survived.
    pub persistence: u32,
}

/// Counters for Table V's stack-sampling columns.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct StackSamplerStats {
    /// Samples actually taken (timer fires).
    pub samples: u64,
    /// Frames captured raw (lazy fast path).
    pub raw_captures: u64,
    /// Frames whose content was extracted.
    pub extractions: u64,
    /// Slots extracted in total.
    pub slots_extracted: u64,
    /// Slots compared by probing.
    pub slots_probed: u64,
    /// Samples discarded because their frame was popped before a second visit.
    pub discarded_samples: u64,
}

/// Per-thread stack sampler (Fig. 8's `SAMPLE-STACK`).
#[derive(Debug)]
pub struct StackSampler {
    config: StackSamplingConfig,
    last_sample: Option<SimNanos>,
    samples: HashMap<u64, FrameRecord>,
    stats: StackSamplerStats,
}

impl StackSampler {
    /// Sampler with the given configuration.
    pub fn new(config: StackSamplingConfig) -> Self {
        StackSampler {
            config,
            last_sample: None,
            samples: HashMap::new(),
            stats: StackSamplerStats::default(),
        }
    }

    /// The configuration in force.
    pub fn config(&self) -> StackSamplingConfig {
        self.config
    }

    /// Counters so far.
    pub fn stats(&self) -> StackSamplerStats {
        self.stats
    }

    /// Timer check: samples the stack iff `gap_ns` simulated nanoseconds elapsed since
    /// the previous sample. Returns whether a sample was taken.
    pub fn maybe_sample(
        &mut self,
        stack: &mut JavaStack,
        clock: &ClockHandle,
        costs: &CostModel,
    ) -> bool {
        let now = clock.now();
        if !self.sample_due(now) {
            return false;
        }
        self.last_sample = Some(now);
        self.sample(stack, clock, costs);
        true
    }

    /// Would [`maybe_sample`](Self::maybe_sample) sample at simulated time `now`?
    pub(crate) fn sample_due(&self, now: SimNanos) -> bool {
        self.last_sample
            .is_none_or(|last| now.saturating_sub(last) >= self.config.gap_ns)
    }

    /// Unconditionally take one sample (Fig. 8).
    pub fn sample(&mut self, stack: &mut JavaStack, clock: &ClockHandle, costs: &CostModel) {
        self.stats.samples += 1;
        clock.spend(costs.stack_sample_entry_ns);
        let depth = stack.depth();
        if depth == 0 {
            self.gc(stack);
            return;
        }

        // --- Top-down phase: find the first visited frame from the top.
        let mut first_visited: Option<usize> = None;
        for i in (0..depth).rev() {
            if stack.frame(i).visited() {
                first_visited = Some(i);
                break;
            }
        }

        // --- Process the first visited frame: convert raw sample, compare by probing.
        if let Some(fv) = first_visited {
            let incarnation = stack.frame(fv).incarnation();
            if let Some(record) = self.samples.get_mut(&incarnation) {
                if let SampleState::Raw(slots) = &record.state {
                    // CONVERT-RAW-SAMPLE: extract reference slots from the *old* image.
                    let extracted: Vec<RefSlot> = slots
                        .iter()
                        .enumerate()
                        .filter_map(|(i, s)| s.as_ref_obj().map(|obj| RefSlot { slot: i, obj }))
                        .collect();
                    clock.spend(costs.frame_extract_slot_ns * slots.len() as u64);
                    self.stats.extractions += 1;
                    self.stats.slots_extracted += slots.len() as u64;
                    record.state = SampleState::Extracted(extracted);
                }
                // COMPARE-BY-PROBING: old sample probes the new frame; drop mismatches.
                if let SampleState::Extracted(refs) = &mut record.state {
                    let frame = stack.frame(fv);
                    clock.spend(costs.frame_probe_slot_ns * refs.len() as u64);
                    self.stats.slots_probed += refs.len() as u64;
                    refs.retain(|r| {
                        r.slot < frame.n_slots()
                            && frame.slot(r.slot).as_ref_obj() == Some(r.obj)
                    });
                    record.comparisons += 1;
                    record.depth = fv;
                }
            } else {
                // Visited flag without a sample (sampler attached mid-run): re-capture.
                self.capture(stack, fv, clock, costs);
            }
        }

        // --- Bottom-up phase: capture every unvisited frame above, set visited flags.
        let start = first_visited.map_or(0, |fv| fv + 1);
        for i in start..depth {
            self.capture(stack, i, clock, costs);
        }

        self.gc(stack);
    }

    fn capture(&mut self, stack: &mut JavaStack, i: usize, clock: &ClockHandle, costs: &CostModel) {
        let frame = stack.frame_mut(i);
        frame.set_visited(true);
        let incarnation = frame.incarnation();
        let state = if self.config.lazy_extraction {
            clock.spend(costs.frame_raw_capture_ns);
            self.stats.raw_captures += 1;
            SampleState::Raw(frame.slots().to_vec())
        } else {
            // Immediate extraction (Table V baseline): pay per-slot cost up front.
            clock.spend(costs.frame_extract_slot_ns * frame.n_slots() as u64);
            self.stats.extractions += 1;
            self.stats.slots_extracted += frame.n_slots() as u64;
            SampleState::Extracted(
                frame
                    .slots()
                    .iter()
                    .enumerate()
                    .filter_map(|(j, s)| s.as_ref_obj().map(|obj| RefSlot { slot: j, obj }))
                    .collect(),
            )
        };
        self.samples.insert(
            incarnation,
            FrameRecord {
                state,
                depth: i,
                comparisons: 0,
            },
        );
    }

    /// Discard samples of popped frames ("if it is not visited for the second time, it
    /// will be discarded on the next stack sampling").
    fn gc(&mut self, stack: &JavaStack) {
        let live: std::collections::HashSet<u64> =
            stack.frames().map(|f| f.incarnation()).collect();
        let before = self.samples.len();
        self.samples.retain(|inc, _| live.contains(inc));
        self.stats.discarded_samples += (before - self.samples.len()) as u64;
    }

    /// The invariant references discovered so far, ordered **topmost-first** (the
    /// resolution heuristic of Section III.A.3: top invariants are more recent).
    pub fn invariants(&self) -> Vec<StackInvariant> {
        let mut out: Vec<StackInvariant> = self
            .samples
            .values()
            .filter(|r| r.comparisons >= 1)
            .flat_map(|r| {
                let refs: &[RefSlot] = match &r.state {
                    SampleState::Extracted(refs) => refs,
                    SampleState::Raw(_) => &[],
                };
                refs.iter()
                    .map(|rs| StackInvariant {
                        depth: r.depth,
                        slot: rs.slot,
                        obj: rs.obj,
                        persistence: r.comparisons,
                    })
                    .collect::<Vec<_>>()
            })
            .collect();
        out.sort_by(|a, b| b.depth.cmp(&a.depth).then(a.slot.cmp(&b.slot)));
        out
    }

    /// Live per-frame samples (diagnostics).
    pub fn live_samples(&self) -> usize {
        self.samples.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jessy_net::{ClockBoard, ThreadId};
    use jessy_stack::{MethodId, Slot};

    fn setup() -> (JavaStack, ClockHandle, CostModel) {
        (
            JavaStack::new(),
            ClockBoard::new(1).handle(ThreadId(0)),
            CostModel::pentium4_2ghz(),
        )
    }

    fn sampler() -> StackSampler {
        StackSampler::new(StackSamplingConfig {
            gap_ns: 1_000_000,
            lazy_extraction: true,
        })
    }

    #[test]
    fn invariant_surviving_two_samples_is_reported() {
        let (mut stack, clock, costs) = setup();
        let mut s = sampler();
        stack.push_raw(MethodId(0), 3);
        stack.set_local(0, Slot::Ref(ObjectId(7)));
        stack.set_local(1, Slot::Prim(1));

        s.sample(&mut stack, &clock, &costs);
        assert!(s.invariants().is_empty(), "one sample proves nothing");

        s.sample(&mut stack, &clock, &costs);
        let inv = s.invariants();
        assert_eq!(inv.len(), 1);
        assert_eq!(inv[0].obj, ObjectId(7));
        assert_eq!(inv[0].slot, 0);
        assert_eq!(inv[0].persistence, 1);
    }

    #[test]
    fn changed_slots_are_dropped_by_probing() {
        let (mut stack, clock, costs) = setup();
        let mut s = sampler();
        stack.push_raw(MethodId(0), 2);
        stack.set_local(0, Slot::Ref(ObjectId(1)));
        stack.set_local(1, Slot::Ref(ObjectId(2)));

        s.sample(&mut stack, &clock, &costs);
        stack.set_local(1, Slot::Ref(ObjectId(99))); // slot 1 varies
        s.sample(&mut stack, &clock, &costs);

        let inv = s.invariants();
        assert_eq!(inv.len(), 1, "only the stable slot survives");
        assert_eq!(inv[0].obj, ObjectId(1));

        // A later change kills a previously-invariant slot too.
        stack.set_local(0, Slot::Ref(ObjectId(50)));
        s.sample(&mut stack, &clock, &costs);
        assert!(s.invariants().is_empty());
    }

    #[test]
    fn temporary_frames_never_pay_extraction() {
        let (mut stack, clock, costs) = setup();
        let mut s = sampler();
        stack.push_raw(MethodId(0), 4); // long-lived bottom frame
        stack.set_local(0, Slot::Ref(ObjectId(1)));
        s.sample(&mut stack, &clock, &costs);

        // Churn temporary top frames between samples.
        for i in 0..10 {
            stack.push_raw(MethodId(1), 6);
            stack.set_local(0, Slot::Ref(ObjectId(100 + i)));
            s.sample(&mut stack, &clock, &costs);
            stack.pop();
        }
        // One final sample so the last temporary's record is garbage-collected too.
        s.sample(&mut stack, &clock, &costs);
        let stats = s.stats();
        // Only the bottom frame was ever extracted (once, lazily, on its 2nd visit).
        assert_eq!(stats.extractions, 1);
        assert_eq!(stats.raw_captures, 11, "bottom once + 10 temporaries");
        assert_eq!(stats.discarded_samples, 10);
        assert_eq!(s.invariants().len(), 1);
    }

    #[test]
    fn two_phase_scan_skips_frames_below_first_visited() {
        let (mut stack, clock, costs) = setup();
        let mut s = sampler();
        stack.push_raw(MethodId(0), 1); // A (bottom)
        stack.frame_mut(0).set_slot(0, Slot::Ref(ObjectId(1)));
        stack.push_raw(MethodId(1), 1); // B
        stack.frame_mut(1).set_slot(0, Slot::Ref(ObjectId(2)));
        s.sample(&mut stack, &clock, &costs); // both captured raw

        // B (top) is the first visited: only B is compared; A stays raw forever while
        // B remains above it.
        s.sample(&mut stack, &clock, &costs);
        s.sample(&mut stack, &clock, &costs);
        let inv = s.invariants();
        assert_eq!(inv.len(), 1, "A never compared while covered: {inv:?}");
        assert_eq!(inv[0].obj, ObjectId(2));

        // Pop B: A becomes first-visited and gets its comparison.
        stack.pop();
        s.sample(&mut stack, &clock, &costs);
        let objs: Vec<ObjectId> = s.invariants().iter().map(|i| i.obj).collect();
        assert_eq!(objs, vec![ObjectId(1)]);
    }

    #[test]
    fn repushed_frame_is_a_fresh_incarnation() {
        let (mut stack, clock, costs) = setup();
        let mut s = sampler();
        stack.push_raw(MethodId(0), 1);
        stack.set_local(0, Slot::Ref(ObjectId(1)));
        s.sample(&mut stack, &clock, &costs);
        s.sample(&mut stack, &clock, &costs);
        assert_eq!(s.invariants().len(), 1);

        // Pop and re-push the same shape with the same slot value: history must reset.
        stack.pop();
        stack.push_raw(MethodId(0), 1);
        stack.set_local(0, Slot::Ref(ObjectId(1)));
        s.sample(&mut stack, &clock, &costs);
        assert!(
            s.invariants().is_empty(),
            "new incarnation starts from scratch"
        );
    }

    #[test]
    fn invariants_are_ordered_topmost_first() {
        let (mut stack, clock, costs) = setup();
        let mut s = sampler();
        for d in 0..3 {
            stack.push_raw(MethodId(d), 1);
            stack.set_local(0, Slot::Ref(ObjectId(d)));
        }
        // Repeated samples: the top frame gets compared each time; pop it and deeper
        // ones get compared too.
        s.sample(&mut stack, &clock, &costs);
        s.sample(&mut stack, &clock, &costs);
        stack.pop();
        s.sample(&mut stack, &clock, &costs);
        stack.pop();
        s.sample(&mut stack, &clock, &costs);
        let inv = s.invariants();
        assert_eq!(inv.len(), 1, "popped frames' samples are discarded: {inv:?}");
        assert_eq!(inv[0].obj, ObjectId(0));

        // Rebuild a two-deep stack and make both invariant.
        stack.push_raw(MethodId(1), 1);
        stack.set_local(0, Slot::Ref(ObjectId(1)));
        s.sample(&mut stack, &clock, &costs);
        stack.pop(); // compare deep frame again? No — keep both on stack:
        stack.push_raw(MethodId(1), 1);
        stack.set_local(0, Slot::Ref(ObjectId(1)));
        s.sample(&mut stack, &clock, &costs);
        s.sample(&mut stack, &clock, &costs);
        let inv = s.invariants();
        assert!(inv.len() >= 2);
        assert!(inv[0].depth > inv[1].depth, "topmost first: {inv:?}");
    }

    #[test]
    fn timer_gates_samples() {
        let (mut stack, clock, _) = setup();
        let costs = CostModel::free(); // so sampling itself doesn't advance the timer
        let mut s = sampler(); // 1 ms gap
        stack.push_raw(MethodId(0), 1);
        assert!(s.maybe_sample(&mut stack, &clock, &costs), "first always fires");
        assert!(!s.maybe_sample(&mut stack, &clock, &costs));
        clock.spend(999_999);
        assert!(!s.maybe_sample(&mut stack, &clock, &costs));
        clock.spend(1);
        assert!(s.maybe_sample(&mut stack, &clock, &costs));
        assert_eq!(s.stats().samples, 2);
    }

    #[test]
    fn immediate_extraction_pays_up_front() {
        let (mut stack, clock, costs) = setup();
        let mut s = StackSampler::new(StackSamplingConfig {
            gap_ns: 0,
            lazy_extraction: false,
        });
        stack.push_raw(MethodId(0), 5);
        stack.set_local(0, Slot::Ref(ObjectId(3)));
        s.sample(&mut stack, &clock, &costs);
        let stats = s.stats();
        assert_eq!(stats.extractions, 1);
        assert_eq!(stats.slots_extracted, 5);
        assert_eq!(stats.raw_captures, 0);
        // Invariant still requires a second sample.
        assert!(s.invariants().is_empty());
        s.sample(&mut stack, &clock, &costs);
        assert_eq!(s.invariants().len(), 1);
    }

    #[test]
    fn empty_stack_is_handled() {
        let (mut stack, clock, costs) = setup();
        let mut s = sampler();
        s.sample(&mut stack, &clock, &costs);
        assert_eq!(s.stats().samples, 1);
        assert!(s.invariants().is_empty());
    }
}
