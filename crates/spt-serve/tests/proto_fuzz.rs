//! Seeded frame fuzzer for the wire decoders: valid frames of every request
//! and response kind are truncated at every length, flipped at every bit,
//! and given lying counts and lengths. Each decode must return `Ok` or
//! `Err` without panicking, and a counting global allocator checks that no
//! single allocation made while decoding exceeds a small multiple of the
//! frame length.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use spt_core::StageTimings;
use spt_serve::proto::{decode_request, decode_response, encode_request, encode_response};
use spt_serve::{CompileReq, CompileResp, OkBody, ReqBody, Request, RespBody, SimReq, SimResp};
use spt_sim::MachineConfig;

/// Records the largest single allocation (or reallocation target) made by
/// the current thread since the last [`reset_largest`].
struct Counting;

thread_local! {
    static LARGEST: Cell<usize> = const { Cell::new(0) };
}

fn note(size: usize) {
    let _ = LARGEST.try_with(|l| l.set(l.get().max(size)));
}

fn reset_largest() {
    LARGEST.with(|l| l.set(0));
}

fn largest() -> usize {
    LARGEST.with(|l| l.get())
}

// SAFETY: every call forwards to `System` unchanged; the bookkeeping only
// touches a const-initialized thread-local `Cell`, which never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// The most one decode may allocate at once for a frame of `len` bytes:
/// twice the frame (a string or blob copied out of it, or a list reserved
/// for it) plus a fixed allowance for error messages and a list's first
/// few real items.
fn allocation_bound(len: usize) -> usize {
    2 * len + 1024
}

/// SplitMix64: a tiny deterministic generator for the lying values.
struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

fn compile_req(i: u8) -> CompileReq {
    CompileReq {
        source: format!("fn main(n: int) -> int {{ return n + {i}; }}"),
        entry: "main".to_string(),
        train: -7 - i as i64,
        config_id: i,
        want_module_text: i.is_multiple_of(2),
    }
}

fn compile_resp() -> CompileResp {
    CompileResp {
        report_debug: "CompilationReport { loops: [] }".to_string(),
        analyze_text: "func  loop  outcome".to_string(),
        module_text: "fn main".to_string(),
        timings: StageTimings {
            analysis_s: 0.5,
            search_visited: 12_345,
            func_units_total: 3,
            func_analysis_hits: 2,
            func_analysis_misses: 1,
            ..StageTimings::default()
        },
        served_from_memory: true,
    }
}

fn request_frames() -> Vec<Vec<u8>> {
    let bodies = vec![
        ReqBody::Ping,
        ReqBody::Compile(compile_req(1)),
        ReqBody::CompileBatch(vec![compile_req(2), compile_req(3), compile_req(4)]),
        ReqBody::Sim(SimReq {
            source: "fn main(n: int) -> int { return n; }".to_string(),
            entry: "main".to_string(),
            train: 40,
            arg: 400,
            config_id: 3,
            machine: MachineConfig::default(),
        }),
        ReqBody::Stats,
        ReqBody::Shutdown,
    ];
    bodies
        .into_iter()
        .enumerate()
        .map(|(i, body)| {
            encode_request(&Request {
                id: 1000 + i as u64,
                body,
            })
        })
        .collect()
}

fn response_frames() -> Vec<Vec<u8>> {
    let bodies = vec![
        RespBody::Err("compile error: unexpected token".to_string()),
        RespBody::Ok(OkBody::Pong),
        RespBody::Ok(OkBody::Compile(compile_resp())),
        RespBody::Ok(OkBody::CompileBatch(vec![
            Ok(compile_resp()),
            Err("bad variant".to_string()),
            Err(String::new()),
        ])),
        RespBody::Ok(OkBody::Sim(SimResp {
            report_debug: "report".to_string(),
            timings: StageTimings::default(),
            baseline: vec![1, 2, 3, 4, 5, 6, 7, 8],
            spt: vec![9; 24],
            served_from_memory: false,
        })),
        RespBody::Ok(OkBody::Stats(vec![
            ("requests".to_string(), 10),
            ("mem_hits".to_string(), 7),
            ("errors".to_string(), 0),
        ])),
        RespBody::Ok(OkBody::ShuttingDown),
    ];
    bodies
        .into_iter()
        .enumerate()
        .map(|(i, body)| {
            encode_response(&spt_serve::proto::Response {
                id: 2000 + i as u64,
                body,
            })
        })
        .collect()
}

fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        out.push((v as u8) | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
}

/// Every mutant of `frame`: each truncation, each single-bit flip, and, at
/// every offset, the varint starting there replaced by a seeded lie (a
/// count or length the frame cannot back).
fn mutants(frame: &[u8], rng: &mut SplitMix) -> Vec<Vec<u8>> {
    let mut out = Vec::new();
    for len in 0..frame.len() {
        out.push(frame[..len].to_vec());
    }
    for i in 0..frame.len() {
        for bit in 0..8 {
            let mut m = frame.to_vec();
            m[i] ^= 1 << bit;
            out.push(m);
        }
    }
    for i in 0..frame.len() {
        // The varint at `i` ends at the first byte without the high bit.
        let old_len = frame[i..]
            .iter()
            .position(|b| b & 0x80 == 0)
            .map_or(frame.len() - i, |p| p + 1);
        let lies = [
            frame.len() as u64,
            frame.len() as u64 + 1 + rng.next() % 64,
            1 << (20 + rng.next() % 12),
            (spt_serve::proto::MAX_FRAME as u64) + rng.next() % 1024,
            u32::MAX as u64,
            rng.next(),
            u64::MAX,
        ];
        for lie in lies {
            let mut m = frame[..i].to_vec();
            put_varint(&mut m, lie);
            m.extend_from_slice(&frame[i + old_len..]);
            out.push(m);
        }
    }
    out
}

/// Decodes every mutant of every frame with `decode`, checking that none
/// panics and none allocates past [`allocation_bound`]. Returns how many
/// mutants decoded `Ok`.
fn fuzz<T>(frames: &[Vec<u8>], seed: u64, decode: fn(&[u8]) -> Result<T, String>) -> usize {
    let mut rng = SplitMix(seed);
    let mut ok = 0;
    for frame in frames {
        assert!(decode(frame).is_ok(), "the unmutated frame decodes");
        for m in mutants(frame, &mut rng) {
            reset_largest();
            let result = std::panic::catch_unwind(|| decode(&m).is_ok());
            let peak = largest();
            match result {
                Ok(true) => ok += 1,
                Ok(false) => {}
                Err(_) => panic!("decode panicked on {m:?}"),
            }
            assert!(
                peak <= allocation_bound(m.len()),
                "a {}-byte frame made a {peak}-byte allocation: {m:?}",
                m.len()
            );
        }
    }
    ok
}

#[test]
fn request_decoder_survives_truncation_bit_flips_and_lying_counts() {
    let frames = request_frames();
    let ok = fuzz(&frames, 0x5eed_0001, decode_request);
    // Flips inside strings and flags still decode; the fuzzer must not be
    // rejecting everything for one trivial reason.
    assert!(ok > 0, "no mutant decoded");
}

#[test]
fn response_decoder_survives_truncation_bit_flips_and_lying_counts() {
    let frames = response_frames();
    let ok = fuzz(&frames, 0x5eed_0002, decode_response);
    assert!(ok > 0, "no mutant decoded");
}

/// The lie the bound exists for: a batch or stats count far beyond what
/// the frame holds is rejected before anything is reserved for it.
#[test]
fn lying_list_counts_reserve_nothing_for_the_lie() {
    let batch = encode_request(&Request {
        id: 1,
        body: ReqBody::CompileBatch(vec![compile_req(0)]),
    });
    // Layout: version, id varint (1 byte), kind, then the count varint.
    let mut lying = batch[..3].to_vec();
    put_varint(&mut lying, 1 << 40);
    lying.extend_from_slice(&batch[4..]);
    reset_largest();
    let err = decode_request(&lying).unwrap_err();
    assert!(err.contains("count exceeds payload"), "{err}");
    assert!(largest() <= allocation_bound(lying.len()));

    for body in [
        OkBody::CompileBatch(vec![Err("x".to_string())]),
        OkBody::Stats(vec![("x".to_string(), 1)]),
    ] {
        let frame = encode_response(&spt_serve::proto::Response {
            id: 1,
            body: RespBody::Ok(body),
        });
        // Layout: version, id, status, kind, then the count varint.
        let mut lying = frame[..4].to_vec();
        put_varint(&mut lying, frame.len() as u64);
        lying.extend_from_slice(&frame[5..]);
        reset_largest();
        let err = decode_response(&lying).unwrap_err();
        assert!(err.contains("count exceeds payload"), "{err}");
        assert!(largest() <= allocation_bound(lying.len()));
    }
}
