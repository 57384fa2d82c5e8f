//! The golden contract.
//!
//! Every registry kernel maps to the program digests checked into
//! `GOLDEN.json`, at 1 and 4 tiles, both cold and served from a
//! `MappingService`'s cache.  A change that moves any mapped program, or
//! lets the cache serve a different one, fails here.  A change that moves a
//! digest on purpose edits `GOLDEN.json` and says why.
//!
//! [`program_digest`] hashes only per-cycle counts, so two more columns pin
//! the bytes: the FNV-1a hash of each cold mapping's encoded post-transform
//! record.  They see a wrong register, address or operand, and they show
//! that records already written to a cache directory still decode to the
//! same mapping.  Decoding a record and encoding it again gives back the
//! same bytes.
//!
//! The frontend is pinned on its own: a `frontend` column holds each
//! registry kernel's [`frontend_digest`], which hashes everything `Program`'s
//! equality compares, and `frontend_sweeps` holds one aggregate digest per
//! fixed sweep of generated sources (every workload family at several
//! sizes, the first straight-line kernels of a seeded generator, and the
//! deepest legal nesting shapes) and a set of small kernels for the lowering's
//! scope rules.  A sweep source that fails to compile
//! contributes its error instead, so the sweeps pin errors too.
//!
//! In release builds the same registry must also map cold within the
//! per-kernel wall-clock budget.

use fpfa::core::cache::PostTransformArtifacts;
use fpfa::core::codec::{decode_post_transform, encode_post_transform};
use fpfa::core::pipeline::{Mapper, MappingResult};
use fpfa::core::{program_digest, CacheOutcome, MappingService};
use fpfa::frontend::{FrontendError, Program};
use fpfa::workloads as wl;
use fpfa_cdfg::{Cdfg, NodeId, NodeKind};
use fpfa_obs::json::{self, JsonValue};

const GOLDEN: &str = include_str!("../GOLDEN.json");

/// The digest columns of a golden row, in the order they are checked: the
/// program digests, the record digests, then the frontend digest.
const COLUMNS: [&str; 7] = [
    "t1_cold",
    "t1_cached",
    "t4_cold",
    "t4_cached",
    "t1_record",
    "t4_record",
    "frontend",
];

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// FNV-1a over a byte string.
fn fnv1a(bytes: &[u8]) -> u64 {
    Fnv(FNV_OFFSET).bytes(bytes).0
}

/// An FNV-1a state fed field by field.
struct Fnv(u64);

impl Fnv {
    fn bytes(&mut self, bytes: &[u8]) -> &mut Self {
        for &byte in bytes {
            self.0 = (self.0 ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
        }
        self
    }

    fn word(&mut self, value: u64) -> &mut Self {
        self.bytes(&value.to_le_bytes())
    }

    /// A length-prefixed string, so adjacent fields cannot run together.
    fn text(&mut self, text: &str) -> &mut Self {
        self.word(text.len() as u64).bytes(text.as_bytes())
    }
}

/// Feeds what `Cdfg`'s equality compares: the name, every arena slot (a
/// hole or a kind, loop specs recursed into), each live node's input-edge
/// slots and outgoing edges in connect order, and the live edge table.
/// Outgoing edges are named by the input slot they drive, which is unique.
fn hash_cdfg(hash: &mut Fnv, graph: &Cdfg) {
    hash.text(graph.name()).word(graph.node_bound() as u64);
    for index in 0..graph.node_bound() {
        let id = NodeId::from_index(index);
        let Ok(node) = graph.node(id) else {
            hash.word(0);
            continue;
        };
        hash.word(1);
        match node.kind {
            NodeKind::Loop(spec) => {
                hash.text("loop").word(spec.vars.len() as u64);
                for var in &spec.vars {
                    hash.text(var);
                }
                hash_cdfg(hash, &spec.cond);
                hash_cdfg(hash, &spec.body);
            }
            kind => {
                hash.text(&format!("{kind:?}"));
            }
        }
        hash.word(node.input_count() as u64)
            .word(node.output_count() as u64);
        for port in 0..node.input_count() {
            hash.word(node.input_edge(port).map_or(u64::MAX, |e| e.index() as u64));
        }
        hash.word(node.fanout() as u64);
        for sink in graph.sink_endpoints(id) {
            hash.word(sink.node.index() as u64)
                .word(sink.port_index() as u64);
        }
    }
    hash.word(graph.edge_count() as u64);
    for (id, edge) in graph.edges() {
        hash.word(id.index() as u64)
            .word(edge.from.node.index() as u64)
            .word(edge.from.port_index() as u64)
            .word(edge.to.node.index() as u64)
            .word(edge.to.port_index() as u64);
    }
}

/// FNV-1a over everything `Program`'s equality compares: the CDFG and the
/// statespace layout.
fn frontend_digest(program: &Program) -> u64 {
    let mut hash = Fnv(FNV_OFFSET);
    hash_cdfg(&mut hash, &program.cdfg);
    hash.word(program.layout.arrays().len() as u64);
    for array in program.layout.arrays() {
        hash.text(&array.name)
            .word(array.base as u64)
            .word(array.len as u64);
    }
    hash.0
}

/// The digest of one compile: the program's, or the error's variant, message
/// and span.
fn compile_digest(source: &str) -> u64 {
    match fpfa::frontend::compile(source) {
        Ok(program) => frontend_digest(&program),
        Err(error) => error_digest(&error),
    }
}

fn error_digest(error: &FrontendError) -> u64 {
    Fnv(FNV_OFFSET)
        .text("error")
        .text(&format!("{error:?}"))
        .text(&error.to_string())
        .0
}

/// The digest of a mapping's encoded post-transform record, after checking
/// that the record decodes and re-encodes to the same bytes.
fn record_digest(name: &str, mapping: &MappingResult) -> u64 {
    let record = encode_post_transform(&PostTransformArtifacts::of(mapping));
    let decoded = decode_post_transform(&record).expect("a fresh record decodes");
    assert!(
        encode_post_transform(&decoded) == record,
        "{name}: decoding then re-encoding the record changed its bytes"
    );
    fnv1a(&record)
}

/// `(kernel name, digests in COLUMNS order)` for every row of the golden file.
fn checked_in_digests() -> Vec<(String, [u64; 7])> {
    let doc = json::parse(GOLDEN).expect("GOLDEN.json parses");
    let rows = doc
        .as_object()
        .and_then(|top| top.get("kernels"))
        .and_then(JsonValue::as_array)
        .expect("a `kernels` array");
    rows.iter()
        .map(|row| {
            let row = row.as_object().expect("kernel rows are objects");
            let name = row["name"].as_str().expect("a kernel name");
            let digests = row["digests"].as_object().expect("a digests object");
            let digest = |column: &str| parse_digest(&digests[column]);
            (name.to_string(), COLUMNS.map(digest))
        })
        .collect()
}

fn parse_digest(value: &JsonValue) -> u64 {
    let text = value.as_str().expect("digests are strings");
    let hex = text.strip_prefix("0x").expect("digests start with 0x");
    u64::from_str_radix(hex, 16).expect("digests are hex")
}

/// `(sweep name, digest)` for every entry of the golden file's
/// `frontend_sweeps` object, in name order.
fn checked_in_sweeps() -> Vec<(String, u64)> {
    let doc = json::parse(GOLDEN).expect("GOLDEN.json parses");
    doc.as_object()
        .and_then(|top| top.get("frontend_sweeps"))
        .and_then(JsonValue::as_object)
        .expect("a `frontend_sweeps` object")
        .iter()
        .map(|(name, digest)| (name.clone(), parse_digest(digest)))
        .collect()
}

#[test]
fn registry_kernels_map_to_the_checked_in_digests() {
    let expected = checked_in_digests();
    let registry = fpfa::workloads::registry();
    let names: Vec<&str> = registry.iter().map(|kernel| kernel.name.as_str()).collect();
    let listed: Vec<&str> = expected.iter().map(|(name, _)| name.as_str()).collect();
    assert_eq!(
        listed, names,
        "the golden file covers the registry in order"
    );

    let mut actual = vec![[0u64; 7]; registry.len()];
    for (kernel, digests) in registry.iter().zip(&mut actual) {
        let program = fpfa::frontend::compile(&kernel.source).unwrap();
        digests[6] = frontend_digest(&program);
    }
    for (tiles, cold_column, record_column) in [(1, 0, 4), (4, 2, 5)] {
        let mapper = Mapper::new().with_tiles(tiles);
        let service = MappingService::new(mapper.clone());
        for (kernel, digests) in registry.iter().zip(&mut actual) {
            let cold = mapper.map_source(&kernel.source).unwrap();
            service.map_source(&kernel.source).unwrap();
            let cached = service.map_source(&kernel.source).unwrap();
            assert_eq!(cached.report.cache, CacheOutcome::MappingHit);
            digests[cold_column] = program_digest(&cold);
            digests[cold_column + 1] = program_digest(&cached);
            digests[record_column] = record_digest(&kernel.name, &cold);
        }
    }

    let mut drifted = Vec::new();
    for ((name, want), got) in expected.iter().zip(&actual) {
        for (column, (want, got)) in COLUMNS.iter().zip(want.iter().zip(got)) {
            if want != got {
                drifted.push(format!(
                    "{name} {column}: {got:#018x}, expected {want:#018x}"
                ));
            }
        }
    }
    assert!(
        drifted.is_empty(),
        "mapped programs drifted from GOLDEN.json:\n{}",
        drifted.join("\n")
    );
}

/// Every workload family at several sizes.
fn family_sources() -> Vec<String> {
    let mut kernels = Vec::new();
    for n in [1, 2, 3, 5, 8, 13] {
        kernels.extend([
            wl::fir(n),
            wl::dot_product(n),
            wl::vector_scale_add(n, n as i64 - 4),
            wl::iir_biquad(n),
            wl::moving_average(n),
            wl::horner(n, n % 5 + 1),
            wl::power_sum(n),
            wl::fft_butterfly_stage(n),
        ]);
    }
    for n in [1, 2, 3] {
        kernels.extend([wl::dct4(n), wl::matmul(n + 1)]);
    }
    for (width, height) in [(3, 3), (4, 6), (7, 3), (8, 8)] {
        kernels.push(wl::conv2d_3x3(width, height));
    }
    kernels.into_iter().map(|kernel| kernel.source).collect()
}

/// The first 300 straight-line kernels of a fixed splitmix64 stream, 1 to 40
/// operations long.
fn straight_line_sources() -> Vec<String> {
    let mut state = 0x5eed_u64;
    let mut next = move || {
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    };
    (0..300)
        .map(|i| {
            let ops: Vec<(u8, u8, u8)> = (0..i % 40 + 1)
                .map(|_| {
                    let [kind, a, b, ..] = next().to_le_bytes();
                    (kind, a, b)
                })
                .collect();
            wl::straight_line_kernel(&ops)
        })
        .collect()
}

/// The nesting shapes of the frontend's syntax-depth test at 256 levels, the
/// deepest it accepts, one level past it, and one-trip `for` loops nested
/// 255 deep.
fn syntax_depth_sources() -> Vec<String> {
    let mut sources = Vec::new();
    for depth in [256, 257] {
        let n = depth - 1;
        sources.push(format!(
            "void main() {{ int x; x = {}1{}; }}",
            "(".repeat(n),
            ")".repeat(n)
        ));
        sources.push(format!(
            "void main() {{ int a[1]; int x; x = 0; {} x = 1; {} }}",
            "if (a[0]) { ".repeat(n),
            "} ".repeat(n)
        ));
        let last = if depth % 2 == 1 { "-1" } else { "1" };
        sources.push(format!(
            "void main() {{ int x; x = {}1 + {last}{}; }}",
            "1 + (".repeat(depth / 2 - 1),
            ")".repeat(depth / 2 - 1)
        ));
        let mut whiles = String::from("void main() { ");
        for i in 0..depth - 2 {
            whiles.push_str(&format!("int i{i}; "));
        }
        for i in 0..depth - 2 {
            whiles.push_str(&format!("i{i} = 0; while (i{i} < 1) {{ i{i} = i{i} + 1; "));
        }
        whiles.push_str(&"} ".repeat(depth - 2));
        whiles.push('}');
        sources.push(whiles);
        sources.push(format!(
            "void main() {{ int x; x = {}; }}",
            vec!["1"; depth].join(" + ")
        ));
        sources.push(format!(
            "void main() {{ int a[1]; int x; x = {}0{}; }}",
            "a[".repeat(n),
            "]".repeat(n)
        ));
        sources.push(format!("void main() {{ int x; x = {}1; }}", "- ".repeat(n)));
    }
    sources.push(for_nest(255));
    sources
}

/// Small kernels for the lowering's scope rules: shadowing in loop bodies,
/// arrays declared in branches and bodies, dead constants in sub-graphs,
/// scalar inputs read inside loops and branches, one-variable merges, and
/// `for` clauses left out.
fn scope_rule_sources() -> Vec<String> {
    [
        "void main() { int c; int t; t = 0; if (c) { int a[2]; a[0] = 1; t = a[0]; } \
         int a[3]; a[1] = 5; t = t + a[1]; }",
        "void main() { int x; int i; x = 5; i = 0; \
         while (i < 2) { int x; x = i; i = i + 1; } }",
        "void main() { int i; int j; int s; s = 0; for (i = 0; i < 3; i = i + 1) { \
         int b[2]; b[0] = i; for (j = 0; j < 2; j = j + 1) { s = s + b[0] * j; } } }",
        "void main() { int i; int x; x = 1; i = 0; \
         while (i < 3) { x = 7; x = i; i = i + 1; } }",
        "void main() { int a[4]; int i; int m; m = 0; \
         for (i = 0; i < 4; i = i + 1) { if (a[i] > m) { m = a[i]; } } }",
        "void main() { int c; int y; if (c) { y = 1; } else { y = 2; } }",
        "void main() { int n; int i; int s; s = 0; for (i = 0; i < 4; i = i + 1) { s = s + n; } }",
        "void main() { int i; int last; for (i = 0; i < 3; i = i + 1) { last = i; } }",
        "void main() { int a[3]; int i; i = 0; while (i < 3) { a[i] = i * 2; i = i + 1; } }",
        "void main() { int c; int d; int y; y = d; if (c) { if (d) { y = 1; } } }",
        "void main() { int x; int y; int r; r = !x && ~y || -x; }",
        "void main() { int a[4]; int i; i = 0; while (a[i] < 3) { i = i + 1; } }",
        "void main() { int i; int s; s = 0; \
         for (i = 0; i < 3; i = i + 1) { int t = i * 2; s = s + t; } }",
        "void helper() { int q; q = 1; } void main() { int x; x = 2; }",
        "int main() { int x; x = 1; }",
        "void main() { int c; int y; if (c) { int z; z = 3; y = z; } }",
        "void main() { int i; i = 0; for (; i < 2; i = i + 1) { } }",
        "void main() { int i; for (i = 0; i < 2;) { i = i + 1; } }",
        "void main() { int c; int i; i = 0; if (c) { for (i = 0; i < 2; i = i + 1) { } } }",
        "void main() { int a[2]; int c; if (c) { a[0] = 1; } else { a[1] = 2; } }",
        "void main() { int i; int k; i = 0; k = 3; while (i < 2) { \
         int k; k = i; if (k) { i = i + 2; } else { i = i + 1; } } }",
    ]
    .map(String::from)
    .to_vec()
}

/// `for` loops of one trip each, nested `depth` deep, each with its own
/// counter.
fn for_nest(depth: usize) -> String {
    let mut source = String::from("void main() {\n");
    for i in 0..depth {
        source.push_str(&format!("    int i{i};\n"));
    }
    for i in 0..depth {
        source.push_str(&format!("for (i{i} = 0; i{i} < 1; i{i} = i{i} + 1) {{\n"));
    }
    source.push_str(&"}\n".repeat(depth));
    source.push_str("}\n");
    source
}

/// A named generator of sweep sources.
type Sweep = (&'static str, fn() -> Vec<String>);

#[test]
fn frontend_sweeps_compile_to_the_checked_in_digests() {
    let sweeps: [Sweep; 4] = [
        ("families", family_sources),
        ("scope_rules", scope_rule_sources),
        ("straight_line", straight_line_sources),
        ("syntax_depth", syntax_depth_sources),
    ];
    let expected = checked_in_sweeps();
    let listed: Vec<&str> = expected.iter().map(|(name, _)| name.as_str()).collect();
    assert_eq!(listed, sweeps.map(|(name, _)| name));
    let mut drifted = Vec::new();
    for (&(name, sources), (_, want)) in sweeps.iter().zip(&expected) {
        // The deepest shapes recurse past a test thread's stack in debug
        // builds; the stack bound itself is the syntax-depth test's concern.
        let digest = std::thread::Builder::new()
            .stack_size(64 << 20)
            .spawn(move || {
                let mut hash = Fnv(FNV_OFFSET);
                for source in sources() {
                    hash.word(compile_digest(&source));
                }
                hash.0
            })
            .expect("spawn a sweep thread")
            .join()
            .expect("the sweep does not panic");
        if digest != *want {
            drifted.push(format!("{name}: {digest:#018x}, expected {want:#018x}"));
        }
    }
    assert!(
        drifted.is_empty(),
        "frontend output drifted from GOLDEN.json:\n{}",
        drifted.join("\n")
    );
}

/// The cold single-kernel budget.
const BUDGET_MS: f64 = 10.0;
/// The test fails when the slowest kernel exceeds the budget by this factor.
const BUDGET_SLACK: f64 = 1.2;
/// Cold maps per kernel; a kernel's time is its fastest, to damp scheduler
/// noise.
const REPEATS: usize = 3;
/// Every registry kernel maps cold at 1 tile, through a fresh `Mapper`,
/// within `BUDGET_MS × BUDGET_SLACK`.  A run's time is the total wall of its
/// trace, the sum of its seven stage walls, and the same kernel must map to
/// the same digest on every run.
#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "a wall-clock budget only holds for release builds"
)]
fn registry_cold_maps_fit_the_budget() {
    let registry = fpfa::workloads::registry();
    let map_cold = |source: &str| Mapper::new().with_tiles(1).map_source(source).unwrap();
    // One throwaway mapping warms the process (page faults, lazy allocator
    // state), so the first measured kernel is not penalised.
    map_cold(&registry[0].source);

    let mut times = Vec::with_capacity(registry.len());
    for kernel in &registry {
        let mut best_ms = f64::INFINITY;
        let mut digests = Vec::with_capacity(REPEATS);
        for _ in 0..REPEATS {
            let mapping = map_cold(&kernel.source);
            digests.push(program_digest(&mapping));
            best_ms = best_ms.min(mapping.trace.total_wall().as_secs_f64() * 1e3);
        }
        assert!(
            digests.iter().all(|&digest| digest == digests[0]),
            "{}: the cold digest differs between runs: {digests:#x?}",
            kernel.name
        );
        times.push((kernel.name.as_str(), best_ms));
    }

    let worst = times.iter().map(|&(_, ms)| ms).fold(0.0_f64, f64::max);
    let table: Vec<String> = times
        .iter()
        .map(|(name, ms)| format!("{name:<12} {ms:7.2} ms"))
        .collect();
    assert!(
        worst <= BUDGET_MS * BUDGET_SLACK,
        "the slowest cold map took {worst:.2} ms, over the {BUDGET_MS} ms budget by more \
         than {:.0}% (best of {REPEATS}):\n{}",
        (BUDGET_SLACK - 1.0) * 100.0,
        table.join("\n")
    );
}
