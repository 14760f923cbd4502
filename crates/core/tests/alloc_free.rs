//! Counting-allocator proof of the allocation-free message plane.
//!
//! The packed-path refactor's acceptance bar is not "fewer" allocations
//! but a hard shape: in a failure-free round, **composing** candidate
//! paths allocates nothing at all (per ball or otherwise), and the
//! **deliver** stage allocates a constant number of shared buffers —
//! independent of `n` — instead of per-recipient inbox clones. A bench
//! can only suggest that; this test asserts it against a counting
//! global allocator, which also bounds the largest single request a
//! hostile wire body can provoke.
#![allow(unsafe_code)] // a GlobalAlloc impl is unavoidably unsafe

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use bil_core::{BallsIntoLeaves, BilConfig, BilMsg, EpochBil};
use bil_runtime::error::RunError;
use bil_runtime::frame::{read_frame, MAX_FRAME_LEN};
use bil_runtime::pipeline::RoundMessages;
use bil_runtime::wire::{put_varint, Wire, WireError};
use bil_runtime::{InboxBuf, Label, Name, ProcId, Round, SeedTree, ViewProtocol};
use bytes::{BufMut, Bytes, BytesMut};

/// Wraps the system allocator, counting every allocation (fresh or
/// growing) made by the allocating thread and keeping its largest
/// request. Deallocations are not counted: the assertions below are
/// about *acquiring* memory.
struct CountingAlloc;

thread_local! {
    /// Per-thread, so tests running concurrently on other threads cannot
    /// pollute a measured window. Const-initialized: no lazy setup and no
    /// destructor, so the allocator can touch it without recursing.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    /// The largest single request, in bytes, made by this thread.
    static LARGEST: Cell<usize> = const { Cell::new(0) };
}

fn count_allocation(size: usize) {
    // `try_with` fails only while the thread's TLS is being torn down;
    // no measured window is open then.
    let _ = ALLOCATIONS.try_with(|c| c.set(c.get() + 1));
    let _ = LARGEST.try_with(|c| c.set(c.get().max(size)));
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_allocation(layout.size());
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_allocation(new_size);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Runs `f`, returning how many allocations it performed on this thread.
fn allocations_during<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let before = ALLOCATIONS.with(Cell::get);
    let out = f();
    (ALLOCATIONS.with(Cell::get) - before, out)
}

/// Runs `f`, returning the largest single allocation request, in bytes,
/// it made on this thread.
fn largest_request_during<R>(f: impl FnOnce() -> R) -> (usize, R) {
    LARGEST.with(|c| c.set(0));
    let out = f();
    (LARGEST.with(Cell::get), out)
}

/// A failure-free system after round 0: every ball admitted at the root,
/// one view per process, per-process RNG streams.
struct Stage {
    protocol: BallsIntoLeaves,
    labels: Vec<Label>,
    views: Vec<<BallsIntoLeaves as ViewProtocol>::View>,
    rngs: Vec<rand::rngs::SmallRng>,
}

fn stage(n: usize) -> Stage {
    let protocol = BallsIntoLeaves::base();
    let labels: Vec<Label> = (0..n as u64).map(|i| Label(i * 7 + 3)).collect();
    let seeds = SeedTree::new(11);
    let init: InboxBuf<BilMsg> = labels.iter().map(|l| (*l, BilMsg::Init)).collect();
    let views: Vec<_> = (0..n)
        .map(|_| {
            let mut v = protocol.init_view(n);
            protocol.apply(&mut v, Round(0), init.as_inbox());
            v
        })
        .collect();
    let rngs: Vec<_> = (0..n)
        .map(|p| seeds.process_rng(ProcId(p as u32)))
        .collect();
    Stage {
        protocol,
        labels,
        views,
        rngs,
    }
}

#[test]
fn composing_a_path_round_allocates_nothing() {
    let n = 256;
    let mut s = stage(n);
    // Warm-up: one compose per ball outside the measured window (lazy
    // allocator/TLS effects land here, not in the assertion).
    for i in 0..n {
        let _ = s
            .protocol
            .compose(&s.views[i], s.labels[i], Round(1), &mut s.rngs[i]);
    }
    let mut outgoing: Vec<(ProcId, Label, BilMsg)> = Vec::with_capacity(n);
    let (allocs, ()) = allocations_during(|| {
        for i in 0..n {
            let msg = s
                .protocol
                .compose(&s.views[i], s.labels[i], Round(1), &mut s.rngs[i]);
            outgoing.push((ProcId(i as u32), s.labels[i], msg));
        }
    });
    assert_eq!(
        allocs, 0,
        "composing {n} packed candidate paths must not touch the heap"
    );
    // Sanity: the composed messages really are path broadcasts.
    assert!(outgoing
        .iter()
        .all(|(_, _, m)| matches!(m, BilMsg::Path(_))));
}

#[test]
fn batched_compose_of_a_path_round_allocates_nothing() {
    // The batched sweep's acceptance bar matches the per-ball one: with
    // the output buffer warm, one `compose_batch` over a shared view —
    // the shape every executor now drives per cluster — touches the heap
    // zero times. The labels from `stage` ascend, so this exercises the
    // prefix-sharing merge-join fast path, not the per-ball fallback.
    let n = 256;
    let mut s = stage(n);
    let view = s.views.swap_remove(0);
    let balls = s.labels.clone();
    let mut out: Vec<(Label, BilMsg)> = Vec::new();
    let mut rngs: Vec<&mut rand::rngs::SmallRng> = s.rngs.iter_mut().collect();
    // Warm-up: sizes `out` and any lazy allocator state.
    s.protocol
        .compose_batch(&view, &balls, Round(1), &mut rngs, &mut out);
    out.clear();
    let (allocs, ()) = allocations_during(|| {
        s.protocol
            .compose_batch(&view, &balls, Round(1), &mut rngs, &mut out);
    });
    assert_eq!(
        allocs, 0,
        "one batched path-round sweep over {n} balls must not touch the heap"
    );
    assert_eq!(out.len(), n);
    assert!(out.iter().all(|(_, m)| matches!(m, BilMsg::Path(_))));
}

#[test]
fn failure_free_delivery_allocates_a_constant_independent_of_n() {
    let deliver_allocs = |n: usize| -> u64 {
        let mut s = stage(n);
        let outgoing: Vec<(ProcId, Label, BilMsg)> = (0..n)
            .map(|i| {
                let msg = s
                    .protocol
                    .compose(&s.views[i], s.labels[i], Round(1), &mut s.rngs[i]);
                (ProcId(i as u32), s.labels[i], msg)
            })
            .collect();
        let alive = vec![true; n];
        let survivors: Vec<ProcId> = (0..n as u32).map(ProcId).collect();
        let (allocs, msgs) = allocations_during(|| {
            let mut msgs = RoundMessages::new(outgoing, &alive, &[]);
            msgs.prepare(&survivors);
            msgs
        });
        // Every recipient's inbox is the one shared buffer: reading it
        // allocates nothing.
        let (lookup_allocs, ()) = allocations_during(|| {
            for &dst in &survivors {
                assert_eq!(msgs.inbox(dst).len(), n);
            }
        });
        assert_eq!(lookup_allocs, 0, "n={n}: inbox lookups must be free");
        allocs
    };
    let small = deliver_allocs(64);
    let large = deliver_allocs(256);
    assert_eq!(
        small, large,
        "deliver-stage allocation count must not grow with n"
    );
    assert!(
        small <= 8,
        "expected a handful of shared-buffer allocations, got {small}"
    );
}

/// One full failure-free round against `s`: compose every ball's
/// broadcast, build the shared delivery, apply to every view.
fn full_round(s: &mut Stage, round: Round) {
    let n = s.labels.len();
    let outgoing: Vec<(ProcId, Label, BilMsg)> = (0..n)
        .map(|i| {
            let msg = s
                .protocol
                .compose(&s.views[i], s.labels[i], round, &mut s.rngs[i]);
            (ProcId(i as u32), s.labels[i], msg)
        })
        .collect();
    let alive = vec![true; n];
    let survivors: Vec<ProcId> = (0..n as u32).map(ProcId).collect();
    let mut msgs = RoundMessages::new(outgoing, &alive, &[]);
    msgs.prepare(&survivors);
    for i in 0..n {
        s.protocol
            .apply(&mut s.views[i], round, msgs.inbox(ProcId(i as u32)));
    }
}

#[test]
fn applying_a_warm_failure_free_round_allocates_nothing() {
    // The SoA round kernel's acceptance bar: once a view's round scratch
    // is warm (one path + one sync round), the *apply* stage of a
    // failure-free round touches the heap zero times — the priority
    // snapshot reuses the scratch column, the inbox joins against the
    // label column by linear merge, and every placement mutates columns
    // in place. `BTreeMap` churn is allowed only at commit/epoch
    // boundaries, which a failure-free base-protocol round never crosses.
    let n = 256;
    let mut s = stage(n);
    // Warm-up: one full phase (path + sync) sizes every view's scratch.
    full_round(&mut s, Round(1));
    full_round(&mut s, Round(2));
    // Measure rounds 3..=6 (two path rounds, two sync rounds), each in
    // its own window.
    for r in 3..=6u64 {
        let round = Round(r);
        let outgoing: Vec<(ProcId, Label, BilMsg)> = (0..n)
            .map(|i| {
                let msg = s
                    .protocol
                    .compose(&s.views[i], s.labels[i], round, &mut s.rngs[i]);
                (ProcId(i as u32), s.labels[i], msg)
            })
            .collect();
        let alive = vec![true; n];
        let survivors: Vec<ProcId> = (0..n as u32).map(ProcId).collect();
        let mut msgs = RoundMessages::new(outgoing, &alive, &[]);
        msgs.prepare(&survivors);
        let (allocs, ()) = allocations_during(|| {
            for i in 0..n {
                s.protocol
                    .apply(&mut s.views[i], round, msgs.inbox(ProcId(i as u32)));
            }
        });
        // Debug builds validate Lemma 1 inside `apply` (which
        // recomputes occupancy vectors, i.e. allocates); the hard zero is
        // a release property — exactly the profile the benchmarks run
        // under.
        if cfg!(not(debug_assertions)) {
            let kind = if round.is_path_round() {
                "path"
            } else {
                "sync"
            };
            assert_eq!(
                allocs, 0,
                "warm {kind}-round apply (round {r}) must not allocate"
            );
        }
    }
    // In either profile the rounds must have actually run: every ball is
    // still resident (failure-free) in every view.
    assert!(s
        .views
        .iter()
        .all(|v| s.labels.iter().all(|l| v.tree().current_node(*l).is_some())));
}

#[test]
fn applying_a_warm_epoch_round_allocates_nothing() {
    // The shape of a service epoch: 256 contenders over 2 048 names, 85 %
    // of which are held under labels that interleave with the
    // contenders', so the view is a tree of the 308 free names. Warm
    // path and sync rounds must not touch the heap either: the snapshot
    // is a counting sort into scratch, the commit flags are a scratch
    // column joined against the label column, and the over-full check
    // reads the load column.
    let names = 2048usize;
    let contenders = 256u64;
    let held = names * 85 / 100;
    // 7 is odd, so `i * 7 mod 2048` names distinct leaves.
    let holders: Vec<(Label, Name)> = (0..held)
        .map(|i| (Label(2 * i as u64 + 1), Name((i * 7 % names) as u32)))
        .collect();
    let epoch = EpochBil::new(BilConfig::new(), names, &holders).expect("valid holders");
    let labels: Vec<Label> = (0..contenders).map(|i| Label(2 * i)).collect();
    let mut view = epoch.init_view(labels.len());
    let init: InboxBuf<BilMsg> = labels.iter().map(|l| (*l, BilMsg::Init)).collect();
    epoch.apply(&mut view, Round(0), init.as_inbox());
    let seeds = SeedTree::new(11);
    let mut rngs: Vec<_> = (0..labels.len())
        .map(|p| seeds.process_rng(ProcId(p as u32)))
        .collect();
    for r in 1..=6u64 {
        let round = Round(r);
        let inbox: InboxBuf<BilMsg> = labels
            .iter()
            .zip(rngs.iter_mut())
            .map(|(l, rng)| (*l, epoch.compose(&view, *l, round, rng)))
            .collect();
        let (allocs, ()) = allocations_during(|| epoch.apply(&mut view, round, inbox.as_inbox()));
        // Rounds 1 and 2 warm the scratch; as above, the hard zero is a
        // release property.
        if r > 2 && cfg!(not(debug_assertions)) {
            let kind = if round.is_path_round() {
                "path"
            } else {
                "sync"
            };
            assert_eq!(
                allocs, 0,
                "warm {kind}-round epoch apply (round {r}) must not allocate"
            );
        }
    }
    // Failure-free: every contender is still placed, and the view holds
    // nothing else (holders never enter an epoch view).
    assert_eq!(view.tree().len(), labels.len());
    assert_eq!(view.committed().count(), 0);
}

#[test]
fn applying_a_shared_inbox_never_clones_the_messages() {
    // Apply does allocate (tree maps change shape), but the inbox side
    // must stay shared: two recipients folding the same buffer see
    // identical bytes with no per-recipient message copies. Guard the
    // *count* instead: applying to the second view must not allocate
    // more than applying to the first plus a small constant, which rules
    // out any O(inbox) cloning per recipient.
    let n = 128;
    let mut s = stage(n);
    let outgoing: Vec<(ProcId, Label, BilMsg)> = (0..n)
        .map(|i| {
            let msg = s
                .protocol
                .compose(&s.views[i], s.labels[i], Round(1), &mut s.rngs[i]);
            (ProcId(i as u32), s.labels[i], msg)
        })
        .collect();
    let alive = vec![true; n];
    let survivors: Vec<ProcId> = (0..n as u32).map(ProcId).collect();
    let mut msgs = RoundMessages::new(outgoing, &alive, &[]);
    msgs.prepare(&survivors);
    let (a0, ()) = allocations_during(|| {
        s.protocol
            .apply(&mut s.views[0], Round(1), msgs.inbox(ProcId(0)));
    });
    let (a1, ()) = allocations_during(|| {
        s.protocol
            .apply(&mut s.views[1], Round(1), msgs.inbox(ProcId(1)));
    });
    // The two views were identical before apply, so any systematic
    // per-recipient inbox copying would show as a large difference or a
    // large common term; both applies must stay within the same budget.
    let budget = 4 * n as u64; // tree-map churn for n placements
    assert!(
        a0 <= budget,
        "apply allocations {a0} exceed budget {budget}"
    );
    assert!(
        a1 <= budget,
        "apply allocations {a1} exceed budget {budget}"
    );
}

#[test]
fn a_hostile_sequence_length_reserves_no_more_than_its_body() {
    // A 4-byte body whose length prefix declares 2^26 labels, the
    // `MAX_SEQ_LEN` cap: the label sets of the wire executors' `Composed`
    // and `Deliver` bodies decode through this path.
    let body = Bytes::from_static(&[0x80, 0x80, 0x80, 0x20]);
    let (largest, decoded) = largest_request_during(|| Vec::<Label>::from_bytes(body));
    assert_eq!(decoded, Err(WireError::UnexpectedEnd));
    assert!(largest < 1024, "decoding requested {largest} bytes at once");
}

#[test]
fn a_hostile_frame_header_reserves_no_more_than_the_readers_cap() {
    // A frame header declaring `MAX_FRAME_LEN` (256 MiB), then three
    // payload bytes, then the end of the stream: the frame reader's
    // payload buffer reserves at most its 1 MiB cap and grows only as
    // bytes arrive, so the peer gets no allocation it did not send.
    let mut stream = BytesMut::new();
    put_varint(&mut stream, MAX_FRAME_LEN);
    stream.put_slice(&[1, 2, 3]);
    let mut reader = std::io::BufReader::new(&stream[..]);
    let (largest, read) =
        largest_request_during(|| read_frame(&mut reader, "reading a hostile frame", 5));
    assert_eq!(
        read,
        Err(RunError::Disconnected {
            context: "reading a hostile frame",
            worker: 5
        })
    );
    assert!(
        largest <= 1 << 20,
        "reading requested {largest} bytes at once"
    );
}
