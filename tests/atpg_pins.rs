//! Exact ATPG outcomes, pinned on a small registered datapath.
//!
//! PODEM's search order decides every cube it returns: which objective it
//! picks, which input the backtrace reaches, when it backtracks. A change
//! to any of them moves the detection vectors, the pattern count or the
//! abort count below, so this file fails loudly on it. The figures were
//! recorded with the graph-walking PODEM that preceded the event-driven
//! one; both produce them exactly.

use soctest::atpg::{AtpgOutcome, ScanAtpg, SequentialAtpg, SequentialAtpgConfig};
use soctest::netlist::{ModuleBuilder, Netlist};

/// Registered operands, a modular adder into an enabled accumulator, and
/// a min comparator on the outputs.
fn datapath() -> Netlist {
    let mut mb = ModuleBuilder::new("dut");
    let a = mb.input_bus("a", 4);
    let b = mb.input_bus("b", 4);
    let en = mb.input("en");
    let ra = mb.register(&a);
    let rb = mb.register(&b);
    let sum = mb.add_mod(&ra, &rb);
    let acc = mb.register_en(en, &sum);
    let (mn, _) = mb.min_u(&acc, &rb);
    mb.output_bus("acc", &acc);
    mb.output_bus("mn", &mn);
    mb.finish().unwrap()
}

/// FNV-1a over a detection vector, undetected faults as `u64::MAX`.
fn digest(detection: &[Option<u64>]) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for d in detection {
        for byte in d.unwrap_or(u64::MAX).to_le_bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x0100_0000_01B3);
        }
    }
    h
}

/// Everything pinned; `saf` and `tdf` are (detected, faults, digest).
#[derive(Debug, PartialEq)]
struct Pinned {
    saf: (usize, usize, u64),
    tdf: (usize, usize, u64),
    patterns: usize,
    stuck_cycles: u64,
    transition_cycles: u64,
    aborted: u64,
}

fn pinned(o: &AtpgOutcome) -> Pinned {
    let model = |r: &soctest::fault::FaultSimResult| {
        (r.detected_count(), r.fault_count(), digest(&r.detection))
    };
    Pinned {
        saf: model(&o.stuck_at),
        tdf: model(&o.transition),
        patterns: o.pattern_count,
        stuck_cycles: o.stuck_cycles,
        transition_cycles: o.transition_cycles,
        aborted: o.aborted,
    }
}

#[test]
fn scan_atpg_outcome_is_pinned() {
    let run = ScanAtpg::default().run(&datapath()).unwrap();
    assert_eq!(
        pinned(&run.outcome),
        Pinned {
            saf: (280, 289, 926_413_430_938_682_740),
            tdf: (213, 289, 2_927_834_682_815_415_639),
            patterns: 189,
            stuck_cycles: 1689,
            transition_cycles: 2658,
            aborted: 0,
        }
    );
}

#[test]
fn sequential_atpg_outcome_is_pinned() {
    let o = SequentialAtpg::default().run(&datapath()).unwrap();
    assert_eq!(
        pinned(&o),
        Pinned {
            saf: (180, 189, 17_900_164_134_620_681_068),
            tdf: (178, 189, 11_463_977_545_911_099_775),
            patterns: 512,
            stuck_cycles: 512,
            transition_cycles: 512,
            aborted: 0,
        }
    );
}

/// With no random phase (scan) or an 8-cycle one (sequential), PODEM sees
/// nearly every fault, so these pins cover far more of its search.
#[test]
fn podem_heavy_outcomes_are_pinned() {
    let scan = ScanAtpg {
        random_patterns: 0,
        ..ScanAtpg::default()
    };
    assert_eq!(
        pinned(&scan.run(&datapath()).unwrap().outcome),
        Pinned {
            saf: (280, 289, 6_553_812_447_180_220_954),
            tdf: (209, 289, 9_871_871_432_376_158_236),
            patterns: 125,
            stuck_cycles: 857,
            transition_cycles: 1762,
            aborted: 0,
        }
    );
    let seq = SequentialAtpg::new(SequentialAtpgConfig {
        random_cycles: 8,
        ..SequentialAtpgConfig::default()
    });
    assert_eq!(
        pinned(&seq.run(&datapath()).unwrap()),
        Pinned {
            saf: (77, 189, 1_930_333_776_871_132_225),
            tdf: (53, 189, 14_754_543_269_170_172_933),
            patterns: 8,
            stuck_cycles: 8,
            transition_cycles: 8,
            aborted: 0,
        }
    );
}
