//! Property-based end-to-end tests: randomly generated straight-line kernels
//! must survive the whole flow (simplification, clustering, scheduling,
//! allocation, simulation) and compute exactly what the CDFG interpreter
//! computes.

use fpfa::core::pipeline::Mapper;
use fpfa::sim::{check_against_cdfg, SimInputs};
use proptest::prelude::*;

/// A randomly generated expression over the available scalar names.
#[derive(Clone, Debug)]
enum Expr {
    Array(usize),
    Small(i64),
    Add(Box<Expr>, Box<Expr>),
    Sub(Box<Expr>, Box<Expr>),
    Mul(Box<Expr>, Box<Expr>),
    Max(Box<Expr>, Box<Expr>),
}

impl Expr {
    fn to_c(&self, array_len: usize) -> String {
        match self {
            Expr::Array(i) => format!("a[{}]", i % array_len),
            Expr::Small(v) => format!("{v}"),
            Expr::Add(l, r) => format!("({} + {})", l.to_c(array_len), r.to_c(array_len)),
            Expr::Sub(l, r) => format!("({} - {})", l.to_c(array_len), r.to_c(array_len)),
            Expr::Mul(l, r) => format!("({} * {})", l.to_c(array_len), r.to_c(array_len)),
            Expr::Max(l, r) => {
                // max is expressed through the supported subset: a compare
                // plus arithmetic select would need an if statement, so use
                // plain arithmetic that still exercises two operands.
                format!("({} ^ {})", l.to_c(array_len), r.to_c(array_len))
            }
        }
    }
}

fn arb_expr(depth: u32) -> impl Strategy<Value = Expr> {
    let leaf = prop_oneof![
        (0usize..8).prop_map(Expr::Array),
        (-6i64..=6).prop_map(Expr::Small),
    ];
    leaf.prop_recursive(depth, 24, 2, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(l, r)| Expr::Add(Box::new(l), Box::new(r))),
            (inner.clone(), inner.clone()).prop_map(|(l, r)| Expr::Sub(Box::new(l), Box::new(r))),
            (inner.clone(), inner.clone()).prop_map(|(l, r)| Expr::Mul(Box::new(l), Box::new(r))),
            (inner.clone(), inner).prop_map(|(l, r)| Expr::Max(Box::new(l), Box::new(r))),
        ]
    })
}

/// Builds a straight-line kernel assigning each random expression to an
/// output scalar and to an output array element.
fn kernel_source(exprs: &[Expr]) -> String {
    let mut body = String::new();
    for (i, expr) in exprs.iter().enumerate() {
        body.push_str(&format!("            r{i} = {};\n", expr.to_c(8)));
        body.push_str(&format!("            out[{i}] = r{i} + {i};\n"));
    }
    let decls: String = (0..exprs.len())
        .map(|i| format!("            int r{i};\n"))
        .collect();
    format!(
        "void main() {{\n            int a[8];\n            int out[{}];\n{decls}{body}        }}",
        exprs.len().max(1)
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn random_straight_line_kernels_map_and_match_the_interpreter(
        exprs in prop::collection::vec(arb_expr(3), 1..4),
        data in prop::collection::vec(-9i64..=9, 8),
    ) {
        let source = kernel_source(&exprs);
        let mapping = Mapper::new()
            .map_source(&source)
            .expect("random straight-line kernels are inside the supported subset");
        let a_base = mapping.layout.array("a").expect("array a").base;
        let inputs = SimInputs::new().array(a_base, &data);
        let report = check_against_cdfg(&mapping.simplified, &mapping.program, &inputs)
            .expect("simulation should not fail");
        prop_assert!(report.is_equivalent(), "{}\nsource:\n{}", report, source);
    }

    #[test]
    fn random_kernels_respect_structural_limits(
        exprs in prop::collection::vec(arb_expr(3), 1..4),
    ) {
        let source = kernel_source(&exprs);
        let mapping = Mapper::new().map_source(&source).expect("mapping succeeds");
        let config = mapping.program.config;
        for cycle in mapping.program.cycles() {
            prop_assert!(cycle.busy_alus() <= config.num_pps);
            let mut per_mem = std::collections::HashMap::new();
            for mv in cycle.moves {
                *per_mem.entry((mv.src.pp, mv.src.mem)).or_insert(0usize) += 1;
            }
            for wb in cycle.writebacks {
                *per_mem.entry((wb.dest.pp, wb.dest.mem)).or_insert(0usize) += 1;
            }
            for used in per_mem.values() {
                prop_assert!(*used <= config.mem_ports);
            }
        }
    }
}
