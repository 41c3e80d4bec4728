//! A budgeted Tcl-subset interpreter: the execution environment for
//! Rover's relocatable dynamic objects.
//!
//! The original Rover toolkit shipped RDO code as Tcl scripts executed
//! by a restricted Tcl/Tk interpreter, achieving the paper's three RDO
//! implementation goals — *safe execution*, *portability*, and adequate
//! *efficiency* — via interpretation in a limited environment. Rust has
//! no safe dynamic native-code loading, so this crate recreates that
//! design: a from-scratch interpreter for a faithful Tcl subset, with
//! hard execution budgets (steps and nesting depth) and a host-command
//! trait ([`HostEnv`]) through which the toolkit exposes object
//! operations (`rover::get`, `rover::set`, …) to RDO methods.
//!
//! Supported language: `set`/`unset`/`incr`/`append`, procs with
//! defaults and `args`, `if`/`elseif`/`else`, `while`, `for`, `foreach`
//! (multi-var), `switch` (exact/glob, fall-through), `expr` with the
//! full C-style operator set plus `eq`/`ne` and math functions, `catch`
//! /`error`, `global`, `puts` (captured), `format`, `info`, the list
//! commands (`list`, `lindex`, `llength`, `lappend`, `lrange`,
//! `linsert`, `lsearch`, `lsort`, `lreverse`, `concat`, `join`,
//! `split`), `string` subcommands, and arrays (`$a(k)`, `array ...`).
//!
//! # Examples
//!
//! ```
//! use rover_script::{Interp, NoHost, Value};
//!
//! let mut interp = Interp::new();
//! interp
//!     .eval(&mut NoHost, "proc fib {n} {
//!         if {$n < 2} {return $n}
//!         expr {[fib [expr {$n - 1}]] + [fib [expr {$n - 2}]]}
//!     }")
//!     .unwrap();
//! let v = interp.eval(&mut NoHost, "fib 10").unwrap();
//! assert_eq!(v, Value::Int(55));
//! ```

#![deny(unsafe_code)]

mod builtins;
mod compile;
mod error;
mod expr;
#[cfg(test)]
mod fusion_differential;
mod interp;
mod parser;
mod value;

pub use error::ScriptError;
pub use interp::{Budget, HostEnv, Interp, NoHost};
pub use value::{format_list, parse_list, ListItems, MemoStr, Value};
