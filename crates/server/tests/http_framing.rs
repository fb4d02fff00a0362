//! Robustness of HTTP framing: 2,000 seeded byte-mutants of valid
//! `/query`, `/jobs` and `/append` requests go through
//! `http::read_request`. Each must come back as a request or a typed
//! `HttpError` — never a panic — and no mutant may make the reader
//! allocate more than `MAX_BODY_BYTES` at once, whatever its
//! `Content-Length` claims.
//!
//! Two framings are refused outright (RFC 9112 §6.3): `Content-Length`
//! headers that disagree, and any `Transfer-Encoding`, since the server
//! decodes no inbound chunked body.
//!
//! The binary counts allocations through its own global allocator, so it
//! holds the mutant test and one small one only: another test allocating a
//! large buffer alongside would show up in the count.

use std::alloc::{GlobalAlloc, Layout, System};
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicUsize, Ordering};

use gola_common::rng::SplitMix64;
use gola_server::http::{read_request, HttpError, MAX_BODY_BYTES};

/// The system allocator, recording the largest single request it served.
struct Largest;

static LARGEST: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every call forwards unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the only addition is an atomic max.
unsafe impl GlobalAlloc for Largest {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LARGEST.fetch_max(layout.size(), Ordering::Relaxed);
        // SAFETY: the caller's `layout` contract passes straight through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        LARGEST.fetch_max(layout.size(), Ordering::Relaxed);
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LARGEST.fetch_max(new_size, Ordering::Relaxed);
        // SAFETY: `ptr` was allocated by `System` with `layout` (every
        // allocation here goes through it), as the caller guarantees.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was allocated by `System` with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: Largest = Largest;

/// Valid requests of every route that carries a body or an id.
fn seeds() -> Vec<Vec<u8>> {
    let post = |path: &str, body: &str, extra: &str| {
        format!(
            "POST {path} HTTP/1.1\r\nhost: localhost\r\n{extra}content-length: {}\r\n\r\n{body}",
            body.len()
        )
        .into_bytes()
    };
    vec![
        post(
            "/query",
            "SELECT AVG(play_time) FROM sessions WHERE buffer_time > \
             (SELECT AVG(buffer_time) FROM sessions)",
            "accept: text/event-stream\r\n",
        ),
        post(
            "/jobs",
            "SELECT geo, COUNT(*) FROM sessions GROUP BY geo",
            "connection: close\r\n",
        ),
        b"GET /jobs/3 HTTP/1.1\r\nhost: localhost\r\n\r\n".to_vec(),
        post(
            "/append/sessions",
            "session_id,geo,play_time\n1,us,3.5\n2,,4.0\n3,eu,\n",
            "content-type: text/csv\r\n",
        ),
    ]
}

/// Uniform draw from `0..n` (`n > 0`).
fn below(rng: &mut SplitMix64, n: usize) -> usize {
    usize::try_from(rng.next_below(n as u64)).unwrap()
}

/// Byte ranges of `text`'s lines, terminators included.
fn lines(text: &[u8]) -> Vec<std::ops::Range<usize>> {
    let mut out = Vec::new();
    let mut start = 0;
    for (i, &b) in text.iter().enumerate() {
        if b == b'\n' {
            out.push(start..i + 1);
            start = i + 1;
        }
    }
    out.push(start..text.len());
    out
}

/// One random corruption of `text`: truncate, flip a bit, delete or
/// duplicate a line, claim an oversized `Content-Length`, or insert bytes
/// that are not UTF-8.
fn mutate(rng: &mut SplitMix64, text: &mut Vec<u8>) {
    let at = below(rng, text.len() + 1);
    match below(rng, 6) {
        0 => text.truncate(at),
        1 if at < text.len() => text[at] ^= 1 << below(rng, 8),
        2 | 3 => {
            let all = lines(text);
            let span = all[below(rng, all.len())].clone();
            if below(rng, 2) == 0 {
                text.drain(span);
            } else {
                let copy = text[span.clone()].to_vec();
                text.splice(span.start..span.start, copy);
            }
        }
        4 => {
            let huge = [
                (MAX_BODY_BYTES + 1).to_string(),
                (MAX_BODY_BYTES * 1000).to_string(),
                u64::MAX.to_string(),
                "99999999999999999999999999".to_string(),
                "-1".to_string(),
            ];
            let header = format!("content-length: {}\r\n", huge[below(rng, huge.len())]);
            let all = lines(text);
            let line = 1 + below(rng, all.len().saturating_sub(1).max(1));
            let pos = all.get(line).map_or(text.len(), |r| r.start);
            text.splice(pos..pos, header.into_bytes());
        }
        _ => {
            let bad: &[u8] =
                [&[0xff][..], &[0xc3], &[0xe2, 0x82], &[0xed, 0xa0, 0x80]][below(rng, 4)];
            text.splice(at..at, bad.iter().copied());
        }
    }
}

#[test]
fn mutated_requests_frame_to_a_request_or_a_typed_error() {
    let seeds = seeds();
    for seed in &seeds {
        let req = read_request(&mut &seed[..]).expect("seed requests are valid");
        assert!(req.path.starts_with('/'));
    }
    let mut rng = SplitMix64::new(0x4E77_F2A3);
    let (mut requests, mut malformed, mut too_large, mut io) = (0, 0, 0, 0);
    let mut panicked = Vec::new();
    for _ in 0..2000 {
        let mut mutant = seeds[below(&mut rng, seeds.len())].clone();
        for _ in 0..=below(&mut rng, 3) {
            mutate(&mut rng, &mut mutant);
        }
        LARGEST.store(0, Ordering::Relaxed);
        let outcome = std::panic::catch_unwind(AssertUnwindSafe(|| read_request(&mut &mutant[..])));
        let largest = LARGEST.load(Ordering::Relaxed);
        match outcome {
            Err(_) => panicked.push(String::from_utf8_lossy(&mutant).into_owned()),
            Ok(Ok(req)) => {
                assert!(req.body.len() <= MAX_BODY_BYTES);
                requests += 1;
            }
            Ok(Err(HttpError::Malformed(_))) => malformed += 1,
            Ok(Err(HttpError::TooLarge(_))) => too_large += 1,
            Ok(Err(HttpError::Io(_))) => io += 1,
        }
        assert!(
            largest <= MAX_BODY_BYTES,
            "an allocation of {largest} bytes for mutant {:?}",
            String::from_utf8_lossy(&mutant)
        );
    }
    assert!(
        panicked.is_empty(),
        "{} mutant(s) panicked the reader:\n{}",
        panicked.len(),
        panicked.join("\n---\n")
    );
    // Every outcome occurs: the mutants reach each exit of the reader.
    for (what, n) in [
        ("requests", requests),
        ("malformed", malformed),
        ("too large", too_large),
        ("i/o errors", io),
    ] {
        assert!(n >= 20, "only {n} {what} among 2000 mutants");
    }
}

#[test]
fn conflicting_lengths_and_transfer_encodings_are_malformed() {
    let request = |headers: &str, body: &str| {
        format!("POST /query HTTP/1.1\r\nhost: localhost\r\n{headers}\r\n{body}").into_bytes()
    };
    let malformed = [
        request("content-length: 3\r\ncontent-length: 5\r\n", "12345"),
        request("content-length: 5\r\ncontent-length: 3\r\n", "12345"),
        request("transfer-encoding: chunked\r\n", "5\r\n12345\r\n0\r\n\r\n"),
        request(
            "content-length: 5\r\ntransfer-encoding: chunked\r\n",
            "12345",
        ),
    ];
    for bytes in &malformed {
        let outcome = read_request(&mut &bytes[..]);
        assert!(
            matches!(outcome, Err(HttpError::Malformed(_))),
            "{outcome:?} for {:?}",
            String::from_utf8_lossy(bytes)
        );
    }
    // Repeating one length is no conflict.
    let same = request("content-length: 5\r\ncontent-length: 5\r\n", "12345");
    let req = read_request(&mut &same[..]).expect("one length, twice");
    assert_eq!(req.body, b"12345");
}
