//! Property tests for the wire protocol: arbitrary requests and responses
//! roundtrip byte-exactly, and no mangled payload (truncated, bit-flipped,
//! or random bytes) can make the decoder panic — corruption always surfaces
//! as a typed [`ProtocolError`] or decodes as a well-formed message.

use fpfa_server::protocol::{
    append_response_frame, decode_request_frame, decode_response_frame, encode_request_frame,
    CacheFlavor, FrameBuffer, HealthSummary, HelloAck, KernelSource, MapKnobs, MapSummary,
    MetricsFormat, ProtocolError, Request, Response, SimSummary, WireError,
};
use proptest::prelude::*;

/// Strings over a small alphabet plus some multi-byte UTF-8, so length
/// prefixes and byte counts disagree with char counts now and then.
fn arb_string() -> impl Strategy<Value = String> {
    prop::collection::vec(any::<u8>(), 0..24).prop_map(|bytes| {
        bytes
            .iter()
            .map(|&byte| match byte % 7 {
                0 => 'µ',
                1 => '→',
                _ => (b'a' + byte % 26) as char,
            })
            .collect()
    })
}

fn arb_knobs() -> impl Strategy<Value = MapKnobs> {
    (
        any::<u32>(),
        any::<u32>(),
        any::<bool>(),
        any::<bool>(),
        any::<bool>(),
        any::<bool>(),
        any::<u32>(),
    )
        .prop_map(
            |(tiles, pps, clustering, locality, simulate, verify, deadline_ms)| MapKnobs {
                tiles,
                pps,
                clustering,
                locality,
                simulate,
                verify,
                deadline_ms,
            },
        )
}

fn arb_kernel() -> impl Strategy<Value = KernelSource> {
    (arb_string(), arb_string()).prop_map(|(name, source)| KernelSource { name, source })
}

fn arb_metrics_format() -> impl Strategy<Value = MetricsFormat> {
    prop_oneof![Just(MetricsFormat::Prometheus), Just(MetricsFormat::Json)]
}

fn arb_request() -> BoxedStrategy<Request> {
    prop_oneof![
        (arb_kernel(), arb_knobs()).prop_map(|(kernel, knobs)| Request::Map { kernel, knobs }),
        Just(Request::Reset),
        Just(Request::Health),
        Just(Request::Shutdown),
        arb_metrics_format().prop_map(|format| Request::Metrics { format }),
        Just(Request::Dump),
    ]
    .boxed()
}

fn arb_cache_flavor() -> impl Strategy<Value = CacheFlavor> {
    prop_oneof![
        Just(CacheFlavor::Uncached),
        Just(CacheFlavor::Miss),
        Just(CacheFlavor::MappingHit),
        Just(CacheFlavor::PostTransformHit),
    ]
}

fn arb_summary() -> impl Strategy<Value = MapSummary> {
    (
        arb_string(),
        (
            any::<u64>(),
            any::<u64>(),
            any::<u64>(),
            any::<u64>(),
            any::<u64>(),
        ),
        (any::<u64>(), any::<u64>()),
        arb_cache_flavor(),
        (any::<bool>(), any::<u64>(), any::<i64>(), any::<u64>()),
    )
        .prop_map(
            |(
                name,
                (digest, operations, clusters, levels, cycles),
                (tiles, inter_tile_transfers),
                cache,
                (has_sim, sim_cycles, checksum, server_micros),
            )| MapSummary {
                name,
                digest,
                operations,
                clusters,
                levels,
                cycles,
                tiles,
                inter_tile_transfers,
                cache,
                sim: has_sim.then_some(SimSummary {
                    cycles: sim_cycles,
                    checksum,
                }),
                server_micros,
            },
        )
}

fn arb_wire_error() -> BoxedStrategy<WireError> {
    prop_oneof![
        any::<u64>().prop_map(|queue_depth| WireError::Overloaded { queue_depth }),
        any::<u64>().prop_map(|budget_ms| WireError::DeadlineExceeded { budget_ms }),
        Just(WireError::ShuttingDown),
        arb_string().prop_map(WireError::Invalid),
        (arb_string(), arb_string()).prop_map(|(name, error)| WireError::MapFailed { name, error }),
        (arb_string(), any::<u64>(), arb_string()).prop_map(|(name, denies, first)| {
            WireError::VerifyFailed {
                name,
                denies,
                first,
            }
        }),
        (any::<u32>(), any::<u32>()).prop_map(|(requested, supported)| {
            WireError::UnsupportedVersion {
                requested,
                supported,
            }
        }),
    ]
    .boxed()
}

fn arb_response() -> BoxedStrategy<Response> {
    prop_oneof![
        arb_summary().prop_map(Response::Mapped),
        (any::<u64>(), any::<u64>(), any::<bool>()).prop_map(
            |(uptime_micros, in_flight, draining)| Response::Health(HealthSummary {
                uptime_micros,
                in_flight,
                draining,
            })
        ),
        any::<u64>().prop_map(|dropped_entries| Response::ResetDone { dropped_entries }),
        Just(Response::ShutdownStarted),
        (any::<u32>(), any::<u32>(), any::<u32>()).prop_map(|(version, shards, max_in_flight)| {
            Response::Hello(HelloAck {
                version,
                shards,
                max_in_flight,
            })
        }),
        arb_wire_error().prop_map(Response::Error),
        (arb_metrics_format(), arb_string())
            .prop_map(|(format, body)| Response::Metrics { format, body }),
        arb_string().prop_map(|json| Response::Dump { json }),
    ]
    .boxed()
}

/// Length-prefixes one frame payload the way `write_frame` does.
fn framed(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(4 + payload.len());
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(payload);
    out
}

/// Splits `bytes` into chunks of at most `chunk` bytes and feeds them to a
/// [`FrameBuffer`], collecting every complete frame payload.
fn feed_in_chunks(bytes: &[u8], chunk: usize) -> Result<Vec<Vec<u8>>, String> {
    let mut buffer = FrameBuffer::new();
    let mut frames = Vec::new();
    for piece in bytes.chunks(chunk.max(1)) {
        buffer.extend(piece);
        loop {
            match buffer.next_frame() {
                Ok(Some(frame)) => frames.push(frame.to_vec()),
                Ok(None) => break,
                Err(e) => return Err(e.to_string()),
            }
        }
    }
    Ok(frames)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn requests_roundtrip(request in arb_request()) {
        let encoded = request.encode();
        prop_assert_eq!(Request::decode(&encoded), Ok(request));
    }

    #[test]
    fn responses_roundtrip(response in arb_response()) {
        let encoded = response.encode();
        prop_assert_eq!(Response::decode(&encoded), Ok(response));
    }

    #[test]
    fn truncated_requests_yield_typed_errors(request in arb_request(), cut in any::<usize>()) {
        let encoded = request.encode();
        let cut = cut % encoded.len().max(1);
        // A strict prefix can never decode to a complete message: every
        // trailing field is mandatory, so truncation must error (and, above
        // all, must not panic).
        let decoded = Request::decode(&encoded[..cut]);
        prop_assert!(decoded.is_err(), "cut at {} decoded: {:?}", cut, decoded);
    }

    #[test]
    fn bit_flips_never_panic(
        request in arb_request(),
        position in any::<usize>(),
        bit in 0u8..8,
    ) {
        let mut encoded = request.encode();
        let position = position % encoded.len().max(1);
        if !encoded.is_empty() {
            encoded[position] ^= 1 << bit;
        }
        // A flipped byte may still decode (e.g. a changed numeric knob) but
        // must never panic and never produce garbage lengths.
        let _ = Request::decode(&encoded);
        let _ = Response::decode(&encoded);
    }

    #[test]
    fn random_bytes_never_panic(bytes in prop::collection::vec(any::<u8>(), 0..64)) {
        let _ = Request::decode(&bytes);
        let _ = Response::decode(&bytes);
    }

    #[test]
    fn pipelined_request_streams_parse_in_submission_order(
        requests in prop::collection::vec(arb_request(), 1..6),
        chunk in 1usize..64,
    ) {
        // Many v2 request frames written back-to-back, arriving in arbitrary
        // read() chunk sizes, parse back to the same ids and bodies.
        let mut stream = Vec::new();
        for (id, request) in requests.iter().enumerate() {
            stream.extend_from_slice(&framed(&encode_request_frame(id as u64, request)));
        }
        let frames = feed_in_chunks(&stream, chunk).map_err(TestCaseError::fail)?;
        prop_assert_eq!(frames.len(), requests.len());
        for (expected_id, (frame, expected)) in frames.iter().zip(&requests).enumerate() {
            let (id, request) = decode_request_frame(frame).map_err(|e| {
                TestCaseError::fail(e.to_string())
            })?;
            prop_assert_eq!(id, expected_id as u64);
            prop_assert_eq!(&request, expected);
        }
    }

    #[test]
    fn shuffled_response_streams_reassemble_by_request_id(
        responses in prop::collection::vec(arb_response(), 1..6),
        seed in any::<u64>(),
        chunk in 1usize..64,
        prefix in prop::collection::vec(any::<u8>(), 1..16),
    ) {
        // Responses completing in *any* order still pair with their
        // requests: the echoed id, not wire position, is the join key.
        let mut tagged: Vec<(u64, Response)> = responses
            .into_iter()
            .enumerate()
            .map(|(id, response)| (id as u64, response))
            .collect();
        // Seed-driven Fisher–Yates (xorshift), so every permutation of the
        // completion order gets exercised across cases.
        let mut state = seed | 1;
        for i in (1..tagged.len()).rev() {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            tagged.swap(i, (state % (i as u64 + 1)) as usize);
        }
        // The encoder appends each frame after whatever the write buffer
        // already holds, leaving those bytes be.
        let mut stream = prefix.clone();
        for (id, response) in &tagged {
            let before = stream.len();
            let written = append_response_frame(&mut stream, *id, response);
            prop_assert_eq!(written, stream.len() - before);
        }
        prop_assert_eq!(&stream[..prefix.len()], &prefix[..]);
        let frames = feed_in_chunks(&stream[prefix.len()..], chunk).map_err(TestCaseError::fail)?;
        prop_assert_eq!(frames.len(), tagged.len());
        let mut reassembled = std::collections::HashMap::new();
        for frame in &frames {
            let (id, response) = decode_response_frame(frame).map_err(|e| {
                TestCaseError::fail(e.to_string())
            })?;
            prop_assert!(reassembled.insert(id, response).is_none(), "duplicate id {}", id);
        }
        for (id, expected) in &tagged {
            prop_assert_eq!(reassembled.get(id), Some(expected));
        }
    }

    #[test]
    fn corrupted_pipelined_streams_never_panic(
        tagged in prop::collection::vec(arb_response(), 1..5),
        cut in any::<usize>(),
        position in any::<usize>(),
        bit in 0u8..8,
    ) {
        // Truncation and bit flips anywhere in a pipelined stream surface as
        // typed frame/protocol errors or as fewer complete frames — never as
        // a panic.  (A flipped id byte may still decode; that is the
        // application's `UnknownRequestId` problem, not the parser's.)
        let mut stream = Vec::new();
        for (id, response) in tagged.iter().enumerate() {
            append_response_frame(&mut stream, id as u64, response);
        }
        let cut = cut % (stream.len() + 1);
        let mut mangled = stream[..cut].to_vec();
        if !mangled.is_empty() {
            let position = position % mangled.len();
            mangled[position] ^= 1 << bit;
        }
        // A shrunk length prefix can split one frame into several, so no
        // frame-count bound holds; the guarantees are typed errors and no
        // panics.
        if let Ok(frames) = feed_in_chunks(&mangled, 7) {
            for frame in &frames {
                let _ = decode_response_frame(frame);
            }
        }
    }

    #[test]
    fn corrupt_length_prefixes_are_rejected(request in arb_request(), lie in any::<u32>()) {
        // Overwrite the first length field after the tag (if any) with a
        // lie; decoding must fail with a typed error, not allocate wildly.
        let mut encoded = request.encode();
        if encoded.len() >= 5 {
            encoded[1..5].copy_from_slice(&lie.to_le_bytes());
            match Request::decode(&encoded) {
                Ok(_) => {} // a small lie can still parse coherently
                Err(
                    ProtocolError::Truncated { .. }
                    | ProtocolError::BadLength { .. }
                    | ProtocolError::BadTag { .. }
                    | ProtocolError::BadUtf8 { .. }
                    | ProtocolError::TrailingBytes { .. },
                ) => {}
            }
        }
    }
}
