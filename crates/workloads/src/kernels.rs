//! Kernel generators.

use std::fmt;
use std::fmt::Write as _;

/// A benchmark kernel: C-subset source plus deterministic input data.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Kernel {
    /// Short kernel name (used as a table row label).
    pub name: String,
    /// One-line description.
    pub description: String,
    /// C-subset source text for the frontend.
    pub source: String,
    /// Input arrays: `(array name, contents)`. The contents are loaded at the
    /// array's base address as assigned by the frontend.
    pub arrays: Vec<(String, Vec<i64>)>,
    /// Scalar kernel inputs by name.
    pub scalars: Vec<(String, i64)>,
}

impl Kernel {
    fn new(name: impl Into<String>, description: impl Into<String>, source: String) -> Self {
        Kernel {
            name: name.into(),
            description: description.into(),
            source,
            arrays: Vec::new(),
            scalars: Vec::new(),
        }
    }

    fn with_array(mut self, name: &str, values: Vec<i64>) -> Self {
        self.arrays.push((name.to_string(), values));
        self
    }
}

impl fmt::Display for Kernel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} — {}", self.name, self.description)
    }
}

/// Deterministic pseudo-data: small signed values without randomness so every
/// run of every experiment sees identical inputs.  Exported because every
/// tool that simulates a mapped kernel (`fpfa-map --simulate`, the serving
/// daemon's `simulate` knob) must fill arrays with the *same* signal, or
/// their outputs and checksums silently diverge; `fpfa_sim::test_inputs`
/// builds it for them.
pub fn test_signal(len: usize, phase: i64) -> Vec<i64> {
    (0..len).map(|i| test_signal_at(i, phase)).collect()
}

/// Element `index` of [`test_signal`]`(len, phase)`, for any `len` above
/// `index`, without building the rest of the signal.
pub fn test_signal_at(index: usize, phase: i64) -> i64 {
    ((index as i64 * 7 + phase * 3) % 13) - 6
}

/// The paper's FIR example (Section V), parameterised by the number of taps.
pub fn fir(taps: usize) -> Kernel {
    let source = format!(
        r#"
        void main() {{
            int a[{taps}];
            int c[{taps}];
            int sum;
            int i;
            sum = 0;
            i = 0;
            while (i < {taps}) {{
                sum = sum + a[i] * c[i];
                i = i + 1;
            }}
        }}
        "#
    );
    Kernel::new(
        format!("fir{taps}"),
        format!("{taps}-tap FIR inner product (the paper's Section V example)"),
        source,
    )
    .with_array("a", test_signal(taps, 0))
    .with_array("c", test_signal(taps, 1))
}

/// Plain dot product of two vectors.
pub fn dot_product(n: usize) -> Kernel {
    let source = format!(
        r#"
        void main() {{
            int x[{n}];
            int y[{n}];
            int acc;
            int i;
            acc = 0;
            for (i = 0; i < {n}; i = i + 1) {{
                acc = acc + x[i] * y[i];
            }}
        }}
        "#
    );
    Kernel::new(
        format!("dot{n}"),
        format!("dot product of two {n}-element vectors"),
        source,
    )
    .with_array("x", test_signal(n, 2))
    .with_array("y", test_signal(n, 3))
}

/// `y[i] = alpha * x[i] + y[i]` (saxpy) with a compile-time alpha.
pub fn vector_scale_add(n: usize, alpha: i64) -> Kernel {
    let source = format!(
        r#"
        void main() {{
            int x[{n}];
            int y[{n}];
            int i;
            for (i = 0; i < {n}; i = i + 1) {{
                y[i] = {alpha} * x[i] + y[i];
            }}
        }}
        "#
    );
    Kernel::new(
        format!("saxpy{n}"),
        format!("y = {alpha}*x + y over {n} elements"),
        source,
    )
    .with_array("x", test_signal(n, 4))
    .with_array("y", test_signal(n, 5))
}

/// A direct-form-I IIR biquad applied to a block of samples.
///
/// Coefficients are fixed small integers (this is a dataflow benchmark, not a
/// numerically meaningful filter).
pub fn iir_biquad(samples: usize) -> Kernel {
    let n = samples;
    let source = format!(
        r#"
        void main() {{
            int x[{n}];
            int y[{n}];
            int i;
            int x1;
            int x2;
            int y1;
            int y2;
            int acc;
            x1 = 0; x2 = 0; y1 = 0; y2 = 0;
            for (i = 0; i < {n}; i = i + 1) {{
                acc = 3 * x[i] + 2 * x1 + x2 - 2 * y1 - y2;
                y[i] = acc;
                x2 = x1;
                x1 = x[i];
                y2 = y1;
                y1 = acc;
            }}
        }}
        "#
    );
    Kernel::new(
        format!("iir{n}"),
        format!("direct-form-I biquad over {n} samples"),
        source,
    )
    .with_array("x", test_signal(n, 6))
}

/// Sliding-window moving average (window of 4, integer arithmetic).
pub fn moving_average(n: usize) -> Kernel {
    let source = format!(
        r#"
        void main() {{
            int x[{n}];
            int y[{n}];
            int i;
            for (i = 3; i < {n}; i = i + 1) {{
                y[i] = (x[i] + x[i - 1] + x[i - 2] + x[i - 3]) / 4;
            }}
        }}
        "#
    );
    Kernel::new(
        format!("mavg{n}"),
        format!("window-4 moving average over {n} samples"),
        source,
    )
    .with_array("x", test_signal(n, 7))
}

/// Horner evaluation of a fixed polynomial at every element of a vector.
pub fn horner(n: usize, degree: usize) -> Kernel {
    // Build the Horner expression ((...(c_d*x + c_{d-1})*x + ...) + c_0).
    let coeffs: Vec<i64> = (0..=degree as i64).map(|i| (i % 5) - 2).collect();
    let mut expr = format!("{}", coeffs[degree]);
    for k in (0..degree).rev() {
        expr = format!("({expr}) * x[i] + {}", coeffs[k]);
    }
    let source = format!(
        r#"
        void main() {{
            int x[{n}];
            int y[{n}];
            int i;
            for (i = 0; i < {n}; i = i + 1) {{
                y[i] = {expr};
            }}
        }}
        "#
    );
    Kernel::new(
        format!("horner{n}x{degree}"),
        format!("degree-{degree} polynomial evaluated at {n} points (Horner)"),
        source,
    )
    .with_array("x", test_signal(n, 8))
}

/// Sum of squares and cubes (exercises deep multiply chains).
pub fn power_sum(n: usize) -> Kernel {
    let source = format!(
        r#"
        void main() {{
            int x[{n}];
            int squares;
            int cubes;
            int i;
            squares = 0;
            cubes = 0;
            for (i = 0; i < {n}; i = i + 1) {{
                squares = squares + x[i] * x[i];
                cubes = cubes + x[i] * x[i] * x[i];
            }}
        }}
        "#
    );
    Kernel::new(
        format!("powsum{n}"),
        format!("sum of squares and cubes over {n} elements"),
        source,
    )
    .with_array("x", test_signal(n, 9))
}

/// One radix-2 butterfly stage over `pairs` complex pairs, with fixed
/// twiddle factors (integer approximation).
pub fn fft_butterfly_stage(pairs: usize) -> Kernel {
    let n = pairs * 2;
    let source = format!(
        r#"
        void main() {{
            int re[{n}];
            int im[{n}];
            int outre[{n}];
            int outim[{n}];
            int i;
            int tr;
            int ti;
            for (i = 0; i < {pairs}; i = i + 1) {{
                tr = re[i + {pairs}] * 3 - im[i + {pairs}] * 2;
                ti = re[i + {pairs}] * 2 + im[i + {pairs}] * 3;
                outre[i] = re[i] + tr;
                outim[i] = im[i] + ti;
                outre[i + {pairs}] = re[i] - tr;
                outim[i + {pairs}] = im[i] - ti;
            }}
        }}
        "#
    );
    Kernel::new(
        format!("fft{n}"),
        format!("one radix-2 butterfly stage over {n} complex points"),
        source,
    )
    .with_array("re", test_signal(n, 10))
    .with_array("im", test_signal(n, 11))
}

/// A 4-point DCT-II with fixed-point coefficients (scaled by 64).
pub fn dct4(blocks: usize) -> Kernel {
    let n = blocks * 4;
    let mut body = String::new();
    for b in 0..blocks {
        let base = b * 4;
        let _ = writeln!(
            body,
            "            y[{o0}] = (x[{i0}] + x[{i1}] + x[{i2}] + x[{i3}]) * 32;",
            o0 = base,
            i0 = base,
            i1 = base + 1,
            i2 = base + 2,
            i3 = base + 3
        );
        let _ = writeln!(
            body,
            "            y[{o1}] = x[{i0}] * 59 + x[{i1}] * 24 - x[{i2}] * 24 - x[{i3}] * 59;",
            o1 = base + 1,
            i0 = base,
            i1 = base + 1,
            i2 = base + 2,
            i3 = base + 3
        );
        let _ = writeln!(
            body,
            "            y[{o2}] = (x[{i0}] - x[{i1}] - x[{i2}] + x[{i3}]) * 32;",
            o2 = base + 2,
            i0 = base,
            i1 = base + 1,
            i2 = base + 2,
            i3 = base + 3
        );
        let _ = writeln!(
            body,
            "            y[{o3}] = x[{i0}] * 24 - x[{i1}] * 59 + x[{i2}] * 59 - x[{i3}] * 24;",
            o3 = base + 3,
            i0 = base,
            i1 = base + 1,
            i2 = base + 2,
            i3 = base + 3
        );
    }
    let source = format!(
        r#"
        void main() {{
            int x[{n}];
            int y[{n}];
{body}        }}
        "#
    );
    Kernel::new(
        format!("dct4x{blocks}"),
        format!("{blocks} block(s) of 4-point DCT-II, fixed-point coefficients"),
        source,
    )
    .with_array("x", test_signal(n, 12))
}

/// Dense matrix multiplication `C = A * B` for small square matrices.
pub fn matmul(n: usize) -> Kernel {
    let elements = n * n;
    let source = format!(
        r#"
        void main() {{
            int a[{elements}];
            int b[{elements}];
            int c[{elements}];
            int i;
            int j;
            int k;
            int acc;
            for (i = 0; i < {n}; i = i + 1) {{
                for (j = 0; j < {n}; j = j + 1) {{
                    acc = 0;
                    for (k = 0; k < {n}; k = k + 1) {{
                        acc = acc + a[i * {n} + k] * b[k * {n} + j];
                    }}
                    c[i * {n} + j] = acc;
                }}
            }}
        }}
        "#
    );
    Kernel::new(
        format!("matmul{n}"),
        format!("{n}x{n} dense matrix multiplication"),
        source,
    )
    .with_array("a", test_signal(elements, 13))
    .with_array("b", test_signal(elements, 14))
}

/// 3×3 convolution over a `width`×`height` image with a fixed kernel.
pub fn conv2d_3x3(width: usize, height: usize) -> Kernel {
    let pixels = width * height;
    let out_w = width - 2;
    let out_h = height - 2;
    let out_pixels = out_w * out_h;
    let source = format!(
        r#"
        void main() {{
            int img[{pixels}];
            int out[{out_pixels}];
            int r;
            int c;
            int acc;
            for (r = 0; r < {out_h}; r = r + 1) {{
                for (c = 0; c < {out_w}; c = c + 1) {{
                    acc = img[r * {width} + c] - 2 * img[r * {width} + c + 1] + img[r * {width} + c + 2];
                    acc = acc + 2 * img[(r + 1) * {width} + c] + 4 * img[(r + 1) * {width} + c + 1] + 2 * img[(r + 1) * {width} + c + 2];
                    acc = acc + img[(r + 2) * {width} + c] - 2 * img[(r + 2) * {width} + c + 1] + img[(r + 2) * {width} + c + 2];
                    out[r * {out_w} + c] = acc;
                }}
            }}
        }}
        "#
    );
    Kernel::new(
        format!("conv{width}x{height}"),
        format!("3x3 convolution over a {width}x{height} image"),
        source,
    )
    .with_array("img", test_signal(pixels, 15))
}

/// The default benchmark suite used by the experiment tables: one
/// representative instance of every kernel family. The first twelve are
/// sized so that the mapped programs stay comfortably inside one tile; the
/// last three (a 64-tap FIR, a 32-point FFT butterfly stage and an 8×8
/// convolution) carry far more parallelism than five ALUs can exploit and
/// exist to exercise the multi-tile partitioner.
pub fn registry() -> Vec<Kernel> {
    vec![
        fir(5),
        fir(16),
        dot_product(8),
        vector_scale_add(8, 3),
        iir_biquad(6),
        moving_average(10),
        horner(6, 4),
        power_sum(6),
        fft_butterfly_stage(4),
        dct4(2),
        matmul(3),
        conv2d_3x3(5, 5),
        fir(64),
        fft_butterfly_stage(16),
        conv2d_3x3(8, 8),
    ]
}

/// The kernels of [`registry`] that exceed one tile's worth of parallelism
/// (the multi-tile acceptance workloads).
pub fn multi_tile_registry() -> Vec<Kernel> {
    vec![fir(64), fft_butterfly_stage(16), conv2d_3x3(8, 8)]
}

/// A straight-line kernel over `int a[6]` for the property tests: draw
/// `(kind, a, b)` at index `i` becomes `t{i} = a[a % 6] <op> <rhs>`, where
/// `kind % 4` picks `+`, `-`, `*` or `^` and the right operand is `a[b % 6]`
/// for the first draw and an earlier temporary `t{b % i}` after it.
pub fn straight_line_kernel(ops: &[(u8, u8, u8)]) -> String {
    let mut body = String::new();
    for (i, (kind, a, b)) in ops.iter().enumerate() {
        let lhs = format!("a[{}]", a % 6);
        let rhs = if i == 0 {
            format!("a[{}]", b % 6)
        } else {
            format!("t{}", (*b as usize) % i)
        };
        let op = match kind % 4 {
            0 => "+",
            1 => "-",
            2 => "*",
            _ => "^",
        };
        body.push_str(&format!("            t{i} = {lhs} {op} {rhs};\n"));
    }
    let decls: String = (0..ops.len())
        .map(|i| format!("            int t{i};\n"))
        .collect();
    format!("void main() {{\n            int a[6];\n{decls}{body}        }}")
}

#[cfg(test)]
mod tests {
    use super::*;
    use fpfa_cdfg::interp::Interpreter;
    use fpfa_cdfg::Value;

    /// Compiles a kernel and runs its CDFG on the kernel's data.
    fn run_kernel(kernel: &Kernel) -> fpfa_cdfg::interp::RunResult {
        let program = fpfa_frontend::compile(&kernel.source)
            .unwrap_or_else(|e| panic!("{} failed to compile: {e}", kernel.name));
        let array_refs: Vec<(&str, &[i64])> = kernel
            .arrays
            .iter()
            .map(|(n, v)| (n.as_str(), v.as_slice()))
            .collect();
        let state = fpfa_frontend::initial_state(&program.layout, &array_refs);
        let mut interp = Interpreter::new(&program.cdfg);
        interp.bind("mem", Value::State(state));
        for (name, value) in &kernel.scalars {
            interp.bind(name.clone(), Value::Word(*value));
        }
        interp
            .run()
            .unwrap_or_else(|e| panic!("{} failed to execute: {e}", kernel.name))
    }

    #[test]
    fn every_registry_kernel_compiles_and_runs() {
        for kernel in registry() {
            let result = run_kernel(&kernel);
            assert!(!result.is_empty(), "{} produced no outputs", kernel.name);
        }
    }

    #[test]
    fn fir_matches_a_direct_computation() {
        let kernel = fir(5);
        let result = run_kernel(&kernel);
        let a = &kernel.arrays[0].1;
        let c = &kernel.arrays[1].1;
        let expected: i64 = a.iter().zip(c.iter()).map(|(x, y)| x * y).sum();
        assert_eq!(result.word("sum"), Some(expected));
    }

    #[test]
    fn dot_product_matches_a_direct_computation() {
        let kernel = dot_product(8);
        let result = run_kernel(&kernel);
        let x = &kernel.arrays[0].1;
        let y = &kernel.arrays[1].1;
        let expected: i64 = x.iter().zip(y.iter()).map(|(a, b)| a * b).sum();
        assert_eq!(result.word("acc"), Some(expected));
    }

    #[test]
    fn saxpy_writes_every_output_element() {
        let kernel = vector_scale_add(8, 3);
        let program = fpfa_frontend::compile(&kernel.source).unwrap();
        let result = run_kernel(&kernel);
        let mem = result.state("mem").unwrap();
        let x = &kernel.arrays[0].1;
        let y = &kernel.arrays[1].1;
        let y_base = program.layout.array("y").unwrap().base;
        for i in 0..8 {
            assert_eq!(mem.fetch(y_base + i as i64), Some(3 * x[i] + y[i]));
        }
    }

    #[test]
    fn matmul_matches_a_direct_computation() {
        let n = 3usize;
        let kernel = matmul(n);
        let program = fpfa_frontend::compile(&kernel.source).unwrap();
        let result = run_kernel(&kernel);
        let mem = result.state("mem").unwrap();
        let a = &kernel.arrays[0].1;
        let b = &kernel.arrays[1].1;
        let c_base = program.layout.array("c").unwrap().base;
        for i in 0..n {
            for j in 0..n {
                let expected: i64 = (0..n).map(|k| a[i * n + k] * b[k * n + j]).sum();
                assert_eq!(
                    mem.fetch(c_base + (i * n + j) as i64),
                    Some(expected),
                    "c[{i}][{j}]"
                );
            }
        }
    }

    #[test]
    fn moving_average_matches_a_direct_computation() {
        let kernel = moving_average(10);
        let program = fpfa_frontend::compile(&kernel.source).unwrap();
        let result = run_kernel(&kernel);
        let mem = result.state("mem").unwrap();
        let x = &kernel.arrays[0].1;
        let y_base = program.layout.array("y").unwrap().base;
        for i in 3..10usize {
            let expected = (x[i] + x[i - 1] + x[i - 2] + x[i - 3]) / 4;
            assert_eq!(mem.fetch(y_base + i as i64), Some(expected));
        }
    }

    #[test]
    fn conv2d_output_size_is_correct() {
        let kernel = conv2d_3x3(5, 5);
        let program = fpfa_frontend::compile(&kernel.source).unwrap();
        assert_eq!(program.layout.array("out").unwrap().len, 9);
        run_kernel(&kernel);
    }

    #[test]
    fn kernel_names_are_unique() {
        let names: Vec<String> = registry().into_iter().map(|k| k.name).collect();
        let mut dedup = names.clone();
        dedup.sort();
        dedup.dedup();
        assert_eq!(names.len(), dedup.len());
    }

    #[test]
    fn display_mentions_name_and_description() {
        let k = fir(5);
        assert!(k.to_string().contains("fir5"));
        assert!(k.to_string().contains("FIR"));
    }
}
