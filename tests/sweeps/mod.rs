//! The fixed sweeps of generated kernel sources: every workload family at
//! several sizes, the first straight-line kernels of a seeded generator, the
//! deepest legal nesting shapes and small kernels for the scope rules.
//! `golden.rs` pins what they compile to; `source_oracle.rs` runs them.

use fpfa::workloads as wl;

/// Every workload family at several sizes.
pub fn family_sources() -> Vec<String> {
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
pub fn straight_line_sources() -> Vec<String> {
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
pub fn syntax_depth_sources() -> Vec<String> {
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

/// Small kernels for the scope rules: shadowing in loop bodies, arrays
/// declared in branches and bodies (one name twice), dead constants in
/// sub-graphs, scalar inputs read inside loops and branches (one in both
/// branches, one in a branch and after it), a loop carrying a scalar that a
/// nested branch declares again, a loop declaring its own copy of a scalar
/// that is never read, one-variable merges, and `for` clauses left out.
pub fn scope_rule_sources() -> Vec<String> {
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
        "void main() { int n; int c; int y; if (c) { y = n; } else { y = n + 1; } }",
        "void main() { int x; int i; int c; x = 1; i = 0; \
         while (i < 2) { if (c) { int x; x = 2; } i = i + x; } }",
        "void main() { int n; int c; int y; int z; if (c) { y = n; } z = n; }",
        "void main() { int x; int i; int r; x = 5; i = 0; \
         while (i < 2) { int x; x = i; r = x; i = i + 1; } }",
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
pub type Sweep = (&'static str, fn() -> Vec<String>);

/// Every sweep, by the name `GOLDEN.json`'s `frontend_sweeps` gives it.
pub const SWEEPS: [Sweep; 4] = [
    ("families", family_sources),
    ("scope_rules", scope_rule_sources),
    ("straight_line", straight_line_sources),
    ("syntax_depth", syntax_depth_sources),
];
