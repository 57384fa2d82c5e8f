//! `fpfa-verify`: static analysis for the FPFA mapping flow.
//!
//! Two halves share one diagnostics core:
//!
//! * **The mapping verifier** ([`Verifier`]) re-checks a finished
//!   [`fpfa_core::MappingResult`] against the architecture contract,
//!   independently of the code that produced it — translation validation in
//!   the spirit of Pnueli/Necula, applied to the paper's CDFG → cluster →
//!   schedule → allocate flow. Every check is a declarative rule with a
//!   stable `FV0xx` id (see [`RULES`]).
//! * **The frontend semantic pass** ([`analyze`]) lints kernel sources
//!   before lowering, with span-carrying `FS0xx` diagnostics (use before
//!   assignment, unused variables, out-of-bounds constant indices, ...).
//!
//! Beside them, [`interp`] runs kernel sources directly, with its own
//! environment stack: a reference for the frontend that uses none of its
//! scoping or lowering code.
//!
//! Both report through [`Diagnostic`]/[`VerifyReport`], render as
//! `rustc`-style text or `--diag-json` machine output, and distinguish
//! deny-level errors (fail the run) from warn-level lints.
//!
//! The [`mutate`] module seeds known-bad defects into mapping results so
//! kill suites can prove the verifier actually rejects each defect class
//! with the documented rule.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod diag;
pub mod interp;
pub mod mapping;
pub mod mutate;
pub mod semantic;
pub mod stage;

pub use diag::{rule_info, Diagnostic, RuleInfo, Severity, VerifyReport, RULES};
pub use mapping::Verifier;
pub use mutate::Mutation;
pub use semantic::{analyze, analyze_unit};
pub use stage::VerifyStage;
