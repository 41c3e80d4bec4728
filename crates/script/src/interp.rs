//! The interpreter: variables, frames, procs, and the dispatch loop
//! that runs compiled programs (see [`crate::compile`]).

use std::borrow::Cow;
use std::collections::HashMap;
use std::rc::Rc;

use crate::builtins;
use crate::compile::{self, Layout, Op, Program};
use crate::error::{Exc, ScriptError};
use crate::expr;
use crate::value::Value;

/// Execution limits enforced on RDO code.
///
/// The paper names *safe execution* as the first goal of an RDO
/// implementation; its Tcl environment achieved it by interpretation in
/// a limited environment. Here the budget bounds both runtime (steps)
/// and stack (depth), so a hostile or buggy RDO cannot wedge the access
/// manager. Budget exhaustion is not catchable from within the script.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Budget {
    /// Maximum command/expression evaluations.
    pub max_steps: u64,
    /// Maximum proc-call / command-substitution nesting depth.
    pub max_depth: usize,
}

impl Default for Budget {
    fn default() -> Self {
        Budget {
            max_steps: 1_000_000,
            max_depth: 64,
        }
    }
}

/// Host-command environment: how Rover exposes toolkit operations
/// (`rover::get`, `rover::set`, …) to RDO code.
///
/// Commands not recognized by the interpreter or defined as procs are
/// offered to the host; returning `None` means "not mine" and produces
/// an *invalid command name* script error.
pub trait HostEnv {
    /// Attempts to run host command `name` with `args`.
    fn call(
        &mut self,
        interp: &mut Interp,
        name: &str,
        args: &[Value],
    ) -> Option<Result<Value, ScriptError>>;
}

/// The no-op host environment.
pub struct NoHost;

impl HostEnv for NoHost {
    fn call(&mut self, _: &mut Interp, _: &str, _: &[Value]) -> Option<Result<Value, ScriptError>> {
        None
    }
}

/// A variable: Tcl scalars and arrays are distinct kinds. `Unset` is an
/// empty frame slot (or a map entry left behind by `unset`).
#[derive(Clone, Debug)]
pub(crate) enum Var {
    Unset,
    Scalar(Value),
    Array(HashMap<String, Value>),
}

/// What a `global` or `upvar` made a local name stand for.
#[derive(Clone)]
enum Link {
    Global,
    /// Target scope (frame index, or [`GLOBAL`]) and the name there.
    Up(usize, String),
}

/// Scope index of the global variables.
const GLOBAL: usize = usize::MAX;

/// One proc activation. Names the body's program mentions literally
/// live in `slots` (laid out by that program); any other name — made up
/// at run time, or used by a program evaluated in this frame that was
/// compiled on its own — lives in `extra`. Which of the two a name uses
/// depends only on the layout, so every access path agrees.
#[derive(Clone)]
pub(crate) struct Frame {
    layout: Rc<Layout>,
    slots: Vec<Var>,
    extra: HashMap<String, Var>,
    /// `global`/`upvar` aliases, consulted before the frame's own
    /// variables (empty for nearly every call).
    links: HashMap<String, Link>,
}

impl Frame {
    fn var_mut(&mut self, name: &str, create: bool) -> Option<&mut Var> {
        match self.layout.slot_of.get(name) {
            Some(&slot) => self.slots.get_mut(slot as usize),
            None => map_var_mut(&mut self.extra, name, create),
        }
    }
}

fn map_var_mut<'a>(
    map: &'a mut HashMap<String, Var>,
    name: &str,
    create: bool,
) -> Option<&'a mut Var> {
    if create && !map.contains_key(name) {
        map.insert(name.to_owned(), Var::Unset);
    }
    map.get_mut(name)
}

pub(crate) struct Proc {
    params: Vec<(String, Option<Value>)>,
    /// Compiled on first call, through the program cache.
    body: Rc<str>,
}

/// An open [`Op::Region`] of one [`Interp::exec`] activation.
struct Handler {
    catch: bool,
    /// Value-stack height and nesting depth to restore.
    sp: usize,
    depth: usize,
    /// Where `break` (or anything caught) and `continue` resume.
    brk: u32,
    cont: u32,
}

/// A Tcl-subset interpreter executing RDO methods.
///
/// # Examples
///
/// ```
/// use rover_script::{Interp, NoHost};
///
/// let mut interp = Interp::new();
/// let v = interp
///     .eval(&mut NoHost, "set total 0\nforeach x {1 2 3 4} {incr total $x}\nset total")
///     .unwrap();
/// assert_eq!(v.as_int().unwrap(), 10);
/// ```
#[derive(Clone, Default)]
pub struct Interp {
    globals: HashMap<String, Var>,
    frames: Vec<Frame>,
    /// Shared copy-on-write: cloning an interpreter (the method-cache
    /// fast path) clones one `Rc`; defining a proc in a clone copies
    /// the table first via `Rc::make_mut`.
    procs: Rc<HashMap<String, Rc<Proc>>>,
    budget: Budget,
    steps: u64,
    depth: usize,
    output: String,
    /// Retired value stacks, reused by the next activation.
    spare: Vec<Vec<Value>>,
    /// Where `Concat`/`Join` assemble their text, so that each makes
    /// one allocation: the `Rc<str>` it pushes. Empty between uses.
    scratch: String,
}

impl Interp {
    /// Creates an interpreter with the default budget.
    pub fn new() -> Self {
        Self::with_budget(Budget::default())
    }

    /// Creates an interpreter with an explicit budget.
    pub fn with_budget(budget: Budget) -> Self {
        Interp {
            budget,
            ..Interp::default()
        }
    }

    /// Evaluates a script, returning the value of its last command.
    ///
    /// `return` at top level yields its value; `break`/`continue`
    /// escaping to the top level are errors, as in Tcl.
    pub fn eval(&mut self, host: &mut dyn HostEnv, src: &str) -> Result<Value, ScriptError> {
        let r = self.eval_src(host, src);
        Self::top_level(r)
    }

    /// Runs the command `name` with already-evaluated `args` — what
    /// evaluating the command line `name arg…` does (one step charged,
    /// builtins before procs before host commands), without printing
    /// the arguments into source text and parsing them back.
    pub fn call(
        &mut self,
        host: &mut dyn HostEnv,
        name: &str,
        args: &[Value],
    ) -> Result<Value, ScriptError> {
        let r = self.charge(1).and_then(|()| self.invoke(host, name, args));
        Self::top_level(r)
    }

    fn top_level(r: Result<Value, Exc>) -> Result<Value, ScriptError> {
        match r {
            Ok(v) | Err(Exc::Return(v)) => Ok(v),
            Err(Exc::Err(e)) => Err(e),
            Err(Exc::Break) => Err(ScriptError::new("invoked \"break\" outside of a loop")),
            Err(Exc::Continue) => Err(ScriptError::new("invoked \"continue\" outside of a loop")),
        }
    }

    /// Steps consumed since construction or the last
    /// [`Interp::reset_steps`]; the toolkit charges CPU time from this.
    pub fn steps_used(&self) -> u64 {
        self.steps
    }

    /// Resets the step counter (per-invocation accounting).
    pub fn reset_steps(&mut self) {
        self.steps = 0;
    }

    /// Returns accumulated `puts` output, clearing the buffer.
    pub fn take_output(&mut self) -> String {
        std::mem::take(&mut self.output)
    }

    /// Sets a global scalar variable.
    pub fn set_global(&mut self, name: &str, v: Value) {
        self.globals.insert(name.to_owned(), Var::Scalar(v));
    }

    /// Reads a global scalar variable.
    pub fn get_global(&self, name: &str) -> Option<Value> {
        match self.globals.get(name) {
            Some(Var::Scalar(v)) => Some(v.clone()),
            _ => None,
        }
    }

    /// Returns whether a proc with this name is defined.
    pub fn has_proc(&self, name: &str) -> bool {
        self.procs.contains_key(name)
    }

    /// Returns the defined proc names, sorted.
    pub fn proc_names(&self) -> Vec<String> {
        let mut names: Vec<String> = self.procs.keys().cloned().collect();
        names.sort();
        names
    }

    // ------------------------------------------------------------------
    // Budget accounting.

    fn charge(&mut self, n: u64) -> Result<(), Exc> {
        self.steps += n;
        if self.steps > self.budget.max_steps {
            Err(Exc::Err(ScriptError::budget()))
        } else {
            Ok(())
        }
    }

    fn enter(&mut self) -> Result<(), Exc> {
        if self.depth >= self.budget.max_depth {
            return Err(Exc::err(
                "too many nested evaluations (possible infinite recursion)",
            ));
        }
        self.depth += 1;
        Ok(())
    }

    // ------------------------------------------------------------------
    // Variables.

    /// Resolves which scope a variable name denotes in the current
    /// frame, following `global` declarations and `upvar` aliases.
    /// Returns (frame index or [`GLOBAL`], renamed target) where `None`
    /// means the caller's name already denotes the target — the
    /// overwhelmingly common case, which must not allocate.
    fn resolve_scope(&self, name: &str) -> (usize, Option<String>) {
        let mut idx = match self.frames.len() {
            0 => return (GLOBAL, None),
            n => n - 1,
        };
        let mut renamed: Option<String> = None;
        for _ in 0..16 {
            let Some(f) = self.frames.get(idx) else {
                return (GLOBAL, renamed);
            };
            match f.links.get(renamed.as_deref().unwrap_or(name)) {
                Some(Link::Global) => return (GLOBAL, renamed),
                Some(Link::Up(target, other)) => {
                    idx = *target;
                    renamed = Some(other.clone());
                }
                None => return (idx, renamed),
            }
        }
        (idx, renamed)
    }

    /// The variable `name` denotes, plus the name it resolved to (for
    /// messages). `slot` is the fast path: the caller's program laid
    /// out the current frame and `name` is its slot — unless the frame
    /// has links, that slot *is* the variable.
    fn place<'a>(
        &'a mut self,
        name: &'a str,
        slot: Option<u32>,
        create: bool,
    ) -> (Option<&'a mut Var>, Cow<'a, str>) {
        if let (Some(slot), Some(top)) = (slot, self.frames.len().checked_sub(1)) {
            if self.frames[top].links.is_empty() {
                return (
                    self.frames[top].slots.get_mut(slot as usize),
                    Cow::Borrowed(name),
                );
            }
        }
        let (scope, renamed) = self.resolve_scope(name);
        let name = renamed.map_or(Cow::Borrowed(name), Cow::Owned);
        let var = match self.frames.get_mut(scope) {
            Some(f) => f.var_mut(&name, create),
            None => map_var_mut(&mut self.globals, &name, create),
        };
        (var, name)
    }

    /// Splits `name` or `name(index)`, borrowing from the input.
    pub(crate) fn split_varname(spec: &str) -> (&str, Option<&str>) {
        if let Some(open) = spec.find('(') {
            if spec.ends_with(')') {
                return (&spec[..open], Some(&spec[open + 1..spec.len() - 1]));
            }
        }
        (spec, None)
    }

    pub(crate) fn var_get(&mut self, name: &str, idx: Option<&str>) -> Result<Value, Exc> {
        let (var, name) = self.place(name, None, false);
        read(var.as_deref(), &name, idx)
    }

    pub(crate) fn var_set(&mut self, name: &str, idx: Option<&str>, v: Value) -> Result<(), Exc> {
        let (var, name) = self.place(name, None, true);
        write(var, &name, idx, v)
    }

    pub(crate) fn var_unset(&mut self, name: &str, idx: Option<&str>) -> Result<(), Exc> {
        let (var, name) = self.place(name, None, false);
        match (var, idx) {
            (Some(v @ (Var::Scalar(_) | Var::Array(_))), None) => {
                *v = Var::Unset;
                Ok(())
            }
            (_, None) => Err(Exc::err(format!(
                "can't unset \"{name}\": no such variable"
            ))),
            (Some(Var::Array(a)), Some(i)) => a
                .remove(i)
                .map(|_| ())
                .ok_or_else(|| Exc::err(format!("can't unset \"{name}({i})\": no such element"))),
            (_, Some(i)) => Err(Exc::err(format!(
                "can't unset \"{name}({i})\": no such array"
            ))),
        }
    }

    pub(crate) fn var_exists(&mut self, name: &str, idx: Option<&str>) -> bool {
        match (self.place(name, None, false).0, idx) {
            (Some(Var::Scalar(_) | Var::Array(_)), None) => true,
            (Some(Var::Array(a)), Some(i)) => a.contains_key(i),
            _ => false,
        }
    }

    /// Read-modify-write of `name` / `name(index)` in place: `f` edits
    /// the current value (or `default` if there is none) where it
    /// lives, so `lappend` on a uniquely held list never copies it.
    pub(crate) fn var_modify(
        &mut self,
        spec: &str,
        default: Value,
        f: impl FnOnce(&mut Value) -> Result<(), Exc>,
    ) -> Result<Value, Exc> {
        let (name, idx) = Self::split_varname(spec);
        let (var, name) = self.place(name, None, true);
        modify(var, &name, idx, default, f)
    }

    /// The array `array` subcommands see: the current frame's own (or,
    /// after `global`, the global one) — `upvar` aliases are not
    /// followed.
    pub(crate) fn local_array(&self, name: &str) -> Option<&HashMap<String, Value>> {
        let var = match self.frames.last() {
            Some(f) if !matches!(f.links.get(name), Some(Link::Global)) => {
                match f.layout.slot_of.get(name) {
                    Some(&slot) => f.slots.get(slot as usize),
                    None => f.extra.get(name),
                }
            }
            _ => self.globals.get(name),
        };
        match var {
            Some(Var::Array(a)) => Some(a),
            _ => None,
        }
    }

    // ------------------------------------------------------------------
    // Evaluation.

    fn eval_src(&mut self, host: &mut dyn HostEnv, src: &str) -> Result<Value, Exc> {
        let prog = compile::script(src)?;
        self.exec(host, &prog)
    }

    /// Runs a compiled program in the current scope. Compilation
    /// charges no steps, so a cached program is step-for-step identical
    /// to a freshly compiled one.
    fn exec(&mut self, host: &mut dyn HostEnv, prog: &Program) -> Result<Value, Exc> {
        // Slot addressing is valid only in the frame this program laid
        // out; anywhere else (global scope, `eval`'d text, glue) its
        // variables are reached by name.
        let direct = self
            .frames
            .last()
            .is_some_and(|f| Rc::ptr_eq(&f.layout, &prog.layout));
        let depth = self.depth;
        let mut stack = self.spare.pop().unwrap_or_default();
        let mut handlers: Vec<Handler> = Vec::new();
        let mut pc = 0usize;
        let r = loop {
            let exc = match self.run(host, prog, direct, &mut stack, &mut handlers, &mut pc) {
                Ok(v) => {
                    // Every path through a program leaves exactly its
                    // result, which `run` has taken.
                    debug_assert!(stack.is_empty(), "unbalanced program stack");
                    break Ok(v);
                }
                Err(exc) => exc,
            };
            match self.unwind(exc, &mut stack, &mut handlers) {
                Ok(resume) => pc = resume,
                Err(exc) => {
                    self.depth = depth;
                    break Err(exc);
                }
            }
        };
        stack.clear();
        self.spare.push(stack);
        r
    }

    /// Finds the innermost region that handles `exc` and returns where
    /// to resume, or gives the exception back.
    fn unwind(
        &mut self,
        exc: Exc,
        stack: &mut Vec<Value>,
        handlers: &mut Vec<Handler>,
    ) -> Result<usize, Exc> {
        // Budget exhaustion must not be containable.
        let catchable = !matches!(&exc, Exc::Err(e) if e.budget_exhausted);
        while let Some(h) = handlers.pop() {
            let resume = match (&exc, h.catch) {
                (_, true) if catchable => h.brk,
                (Exc::Break, false) => h.brk,
                (Exc::Continue, false) => h.cont,
                _ => continue,
            };
            stack.truncate(h.sp);
            self.depth = h.depth;
            if h.catch {
                let (code, val) = match exc {
                    Exc::Err(e) => (1, Value::from(e.message)),
                    Exc::Return(v) => (2, v),
                    Exc::Break => (3, Value::empty()),
                    Exc::Continue => (4, Value::empty()),
                };
                stack.push(val);
                stack.push(Value::Int(code));
            }
            return Ok(resume as usize);
        }
        Err(exc)
    }

    /// The dispatch loop: runs from `*pc` until the program ends or an
    /// instruction raises.
    fn run(
        &mut self,
        host: &mut dyn HostEnv,
        prog: &Program,
        direct: bool,
        stack: &mut Vec<Value>,
        handlers: &mut Vec<Handler>,
        pc: &mut usize,
    ) -> Result<Value, Exc> {
        let name_of =
            |slot: u32| -> &str { prog.layout.names.get(slot as usize).map_or("", |n| n) };
        let fast = |slot: u32| direct.then_some(slot);
        let pop = |stack: &mut Vec<Value>| stack.pop().unwrap_or_else(Value::empty);
        while let Some(op) = prog.code.get(*pc) {
            *pc += 1;
            match op {
                Op::Step => self.charge(1)?,
                Op::Push(v) => stack.push(v.clone()),
                Op::Pop => {
                    stack.pop();
                }
                Op::Load(slot) => {
                    let (var, name) = self.place(name_of(*slot), fast(*slot), false);
                    stack.push(read(var.as_deref(), &name, None)?);
                }
                Op::LoadElem(slot) => {
                    let idx = pop(stack);
                    let (var, name) = self.place(name_of(*slot), fast(*slot), false);
                    stack.push(read(var.as_deref(), &name, Some(&idx.as_str()))?);
                }
                Op::Concat(n) | Op::Join(n) => {
                    let spaced = matches!(op, Op::Join(_));
                    // One joined value passes through untouched.
                    if !(spaced && *n == 1) {
                        let at = stack.len() - *n as usize;
                        for (i, v) in stack[at..].iter().enumerate() {
                            if spaced && i > 0 {
                                self.scratch.push(' ');
                            }
                            v.write_to(&mut self.scratch);
                        }
                        stack.truncate(at);
                        stack.push(Value::str(&self.scratch));
                        self.scratch.clear();
                    }
                }
                Op::Enter => self.enter()?,
                Op::Leave => self.depth -= 1,
                Op::Call(_, n) | Op::CallUser(_, n) | Op::Invoke(n) => {
                    let at = stack.len() - *n as usize;
                    let args = &stack[at..];
                    let v = match (op, args.split_first()) {
                        (Op::Call(f, _), _) => f(self, args)?,
                        (Op::CallUser(name, _), _) => self.call_user(host, name, args)?,
                        (_, Some((name, args))) => self.invoke(host, &name.as_str(), args)?,
                        _ => Value::empty(),
                    };
                    stack.truncate(at);
                    stack.push(v);
                }
                Op::Set(slot) => {
                    let v = pop(stack);
                    let (var, name) = self.place(name_of(*slot), fast(*slot), true);
                    write(var, &name, None, v.clone())?;
                    stack.push(v);
                }
                Op::SetDrop(slot) => {
                    let v = pop(stack);
                    let (var, name) = self.place(name_of(*slot), fast(*slot), true);
                    write(var, &name, None, v)?;
                }
                Op::Incr(slot, by) | Op::IncrDrop(slot, by) => {
                    let by = match by {
                        Some(by) => *by,
                        None => pop(stack).as_int()?,
                    };
                    let (var, name) = self.place(name_of(*slot), fast(*slot), true);
                    let v = match var {
                        // The commonest case adds where the integer lives.
                        Some(Var::Scalar(Value::Int(i))) => {
                            *i = i.wrapping_add(by);
                            Value::Int(*i)
                        }
                        var => modify(var, &name, None, Value::Int(0), incr_by(by))?,
                    };
                    if let Op::Incr(..) = op {
                        stack.push(v);
                    }
                }
                Op::Append(slot, n) | Op::Lappend(slot, n) => {
                    let at = stack.len() - *n as usize;
                    let (var, name) = self.place(name_of(*slot), fast(*slot), true);
                    let v = if matches!(op, Op::Append(..)) {
                        modify(var, &name, None, Value::empty(), append_all(&stack[at..]))?
                    } else {
                        let none = Value::list(Vec::new());
                        modify(var, &name, None, none, lappend_all(&stack[at..]))?
                    };
                    stack.truncate(at);
                    stack.push(v);
                }
                Op::EvalSrc => {
                    let src = pop(stack);
                    stack.push(self.eval_src(host, &src.as_str())?);
                }
                Op::ExprSrc => {
                    let src = pop(stack);
                    let code = compile::expression(&src.as_str())?;
                    stack.push(self.exec(host, &code)?);
                }
                Op::Expr(code, n) => expr::eval(code, stack, *n as usize)?,
                Op::Bin(f) => {
                    let (rhs, lhs) = (pop(stack), pop(stack));
                    stack.push(f(&lhs, &rhs)?);
                }
                Op::Jump(to) => *pc = *to as usize,
                Op::JumpIfFalse(to) => {
                    if !pop(stack).as_bool()? {
                        *pc = *to as usize;
                    }
                }
                Op::BinJumpIfFalse(f, to) => {
                    let (rhs, lhs) = (pop(stack), pop(stack));
                    if !f(&lhs, &rhs)?.as_bool()? {
                        *pc = *to as usize;
                    }
                }
                Op::Region { catch, brk, cont } => handlers.push(Handler {
                    catch: *catch,
                    sp: stack.len(),
                    depth: self.depth,
                    brk: *brk,
                    cont: *cont,
                }),
                Op::Unhandle => {
                    handlers.pop();
                }
                Op::CatchStore(var) => {
                    let (code, val) = (pop(stack), pop(stack));
                    if let Some(spec) = var {
                        let (n, i) = Self::split_varname(spec);
                        self.var_set(n, i, val)?;
                    }
                    stack.push(code);
                }
                Op::ForeachInit => {
                    // A list, or a string's memoised list form, is shared
                    // with the loop, not copied.
                    let list = Value::List(pop(stack).shared_list()?);
                    stack.extend([list, Value::Int(0)]);
                }
                Op::ForeachNext { slots, done } => {
                    let state = stack.len().saturating_sub(2);
                    let (Some(Value::List(items)), Some(Value::Int(at))) =
                        (stack.get(state), stack.get(state + 1))
                    else {
                        return Err(Exc::err("foreach: lost iteration state"));
                    };
                    let (items, at) = (Rc::clone(items), *at as usize);
                    if at >= items.len() {
                        *pc = *done as usize;
                        continue;
                    }
                    self.charge(1)?;
                    for (k, slot) in slots.iter().enumerate() {
                        let v = items.get(at + k).cloned().unwrap_or_else(Value::empty);
                        let (var, name) = self.place(name_of(*slot), fast(*slot), true);
                        write(var, &name, None, v)?;
                    }
                    stack[state + 1] = Value::Int((at + slots.len()) as i64);
                }
                Op::Switch(table, argc) => {
                    let at = stack.len() - *argc as usize;
                    let args = &stack[at..];
                    let (mut i, mut glob) = (0, false);
                    while let Some(a) = args.get(i) {
                        match a.as_str().as_ref() {
                            "-glob" => glob = true,
                            "-exact" => {}
                            "--" => {
                                i += 1;
                                break;
                            }
                            _ => break,
                        }
                        i += 1;
                    }
                    let mut resume = table.end;
                    let v = match args.get(i) {
                        Some(value) if i + 1 == table.clause_arg => {
                            if let Some(defect) = &table.defect {
                                return Err(Exc::err(defect.clone()));
                            }
                            let value = value.as_str();
                            let arm = table.arms.iter().find(|(pat, _)| {
                                &**pat == "default"
                                    || if glob {
                                        builtins::glob_match(pat, &value)
                                    } else {
                                        **pat == *value
                                    }
                            });
                            match arm {
                                Some((_, body)) => {
                                    resume = *body;
                                    None
                                }
                                None => Some(Value::empty()),
                            }
                        }
                        // A computed value that was itself a flag moved
                        // the clause list: decide from the actual words.
                        _ => Some(self.invoke(host, "switch", args)?),
                    };
                    stack.truncate(at);
                    stack.extend(v);
                    *pc = resume as usize;
                }
                Op::Raise(e) => return Err(Exc::Err((**e).clone())),
            }
        }
        Ok(pop(stack))
    }

    /// Full dispatch on an evaluated command name: builtins first, then
    /// user procs, then host commands.
    fn invoke(&mut self, host: &mut dyn HostEnv, name: &str, args: &[Value]) -> Result<Value, Exc> {
        if let Some(glue) = compile::control_glue(name, args) {
            return self.exec(host, &glue);
        }
        match builtins::lookup(name) {
            Some(f) => f(self, args),
            None => self.call_user(host, name, args),
        }
    }

    fn call_user(
        &mut self,
        host: &mut dyn HostEnv,
        name: &str,
        args: &[Value],
    ) -> Result<Value, Exc> {
        if let Some(proc) = self.procs.get(name).map(Rc::clone) {
            return self.call_proc(host, name, &proc, args);
        }
        match host.call(self, name, args) {
            Some(Ok(v)) => Ok(v),
            Some(Err(e)) => Err(Exc::Err(e)),
            None => Err(Exc::err(format!("invalid command name \"{name}\""))),
        }
    }

    fn call_proc(
        &mut self,
        host: &mut dyn HostEnv,
        name: &str,
        proc: &Proc,
        args: &[Value],
    ) -> Result<Value, Exc> {
        // The body compiles (through the cache) first, because its
        // layout places the parameters — but a body that does not parse
        // is reported only after the arity and depth checks, where the
        // call would have met it.
        let body = compile::script(&proc.body);
        let layout = match &body {
            Ok(prog) => Rc::clone(&prog.layout),
            Err(_) => Rc::default(),
        };
        let mut frame = Frame {
            slots: vec![Var::Unset; layout.names.len()],
            layout,
            extra: HashMap::new(),
            links: HashMap::new(),
        };
        let mut bind = |pname: &str, v: Value| {
            if let Some(var) = frame.var_mut(pname, true) {
                *var = Var::Scalar(v);
            }
        };
        let mut ai = 0usize;
        for (pi, (pname, default)) in proc.params.iter().enumerate() {
            if pname == "args" && pi == proc.params.len() - 1 {
                bind("args", Value::list(args[ai.min(args.len())..].to_vec()));
                ai = args.len();
                break;
            }
            match (args.get(ai), default) {
                (Some(v), _) => {
                    bind(pname, v.clone());
                    ai += 1;
                }
                (None, Some(d)) => bind(pname, d.clone()),
                (None, None) => {
                    let params: Vec<&str> = proc.params.iter().map(|(n, _)| n.as_str()).collect();
                    return Err(Exc::err(format!(
                        "wrong # args: should be \"{name} {}\"",
                        params.join(" ")
                    )));
                }
            }
        }
        if ai < args.len() {
            return Err(Exc::err(format!(
                "wrong # args: too many arguments to \"{name}\""
            )));
        }

        self.enter()?;
        let r = body.map_err(Exc::Err).and_then(|prog| {
            self.frames.push(frame);
            let r = self.exec(host, &prog);
            self.frames.pop();
            r
        });
        self.depth -= 1;
        match r {
            Err(Exc::Return(v)) => Ok(v),
            r => r,
        }
    }

    // ------------------------------------------------------------------
    // Core commands.

    pub(crate) fn cmd_set(&mut self, args: &[Value]) -> Result<Value, Exc> {
        let ([name] | [name, _]) = args else {
            return Err(Exc::err(
                "wrong # args: should be \"set varName ?newValue?\"",
            ));
        };
        let spec = name.as_str();
        let (n, i) = Self::split_varname(&spec);
        match args.get(1) {
            None => self.var_get(n, i),
            Some(value) => {
                self.var_set(n, i, value.clone())?;
                Ok(value.clone())
            }
        }
    }

    pub(crate) fn cmd_unset(&mut self, args: &[Value]) -> Result<Value, Exc> {
        for a in args {
            let spec = a.as_str();
            let (n, i) = Self::split_varname(&spec);
            self.var_unset(n, i)?;
        }
        Ok(Value::empty())
    }

    pub(crate) fn cmd_incr(&mut self, args: &[Value]) -> Result<Value, Exc> {
        let (name, by) = match args {
            [n] => (n, 1),
            [n, d] => (n, d.as_int()?),
            _ => {
                return Err(Exc::err(
                    "wrong # args: should be \"incr varName ?increment?\"",
                ))
            }
        };
        self.var_modify(&name.as_str(), Value::Int(0), incr_by(by))
    }

    pub(crate) fn cmd_append(&mut self, args: &[Value]) -> Result<Value, Exc> {
        let (name, rest) = args
            .split_first()
            .ok_or_else(|| Exc::err("wrong # args: append"))?;
        self.var_modify(&name.as_str(), Value::empty(), append_all(rest))
    }

    pub(crate) fn cmd_proc(&mut self, args: &[Value]) -> Result<Value, Exc> {
        let [name, params, body] = args else {
            return Err(Exc::err(
                "wrong # args: should be \"proc name params body\"",
            ));
        };
        let mut parsed = Vec::new();
        for p in params.list_view()?.iter() {
            let spec = p.list_view()?;
            match spec.len() {
                0 => return Err(Exc::err("bad parameter specification")),
                1 => parsed.push((spec[0].as_str().into_owned(), None)),
                _ => parsed.push((spec[0].as_str().into_owned(), Some(spec[1].clone()))),
            }
        }
        Rc::make_mut(&mut self.procs).insert(
            name.as_str().into_owned(),
            Rc::new(Proc {
                params: parsed,
                body: body.as_rc_str(),
            }),
        );
        Ok(Value::empty())
    }

    pub(crate) fn cmd_puts(&mut self, args: &[Value]) -> Result<Value, Exc> {
        let (newline, text) = match args {
            [v] => (true, v.as_str()),
            [flag, v] if flag.as_str() == "-nonewline" => (false, v.as_str()),
            _ => {
                return Err(Exc::err(
                    "wrong # args: should be \"puts ?-nonewline? string\"",
                ))
            }
        };
        self.output.push_str(&text);
        if newline {
            self.output.push('\n');
        }
        Ok(Value::empty())
    }

    pub(crate) fn cmd_global(&mut self, args: &[Value]) -> Result<Value, Exc> {
        if let Some(f) = self.frames.last_mut() {
            for a in args {
                f.links.insert(a.as_str().into_owned(), Link::Global);
            }
        }
        Ok(Value::empty())
    }

    pub(crate) fn cmd_upvar(&mut self, args: &[Value]) -> Result<Value, Exc> {
        // upvar ?level? otherVar localVar ?otherVar localVar ...?
        let depth = self.frames.len();
        let Some(frame) = self.frames.last_mut() else {
            return Err(Exc::err("upvar: not in a procedure"));
        };
        let mut rest = args;
        // Default level 1 = the caller's frame.
        let mut target: usize = depth.checked_sub(2).unwrap_or(GLOBAL);
        if let Some(first) = args.first() {
            let spec = first.as_str();
            let parsed = if let Some(g) = spec.strip_prefix('#') {
                // Frame #k is frames[k-1]; #0 is the global scope.
                g.parse::<usize>()
                    .ok()
                    .map(|abs| abs.checked_sub(1).unwrap_or(GLOBAL))
            } else if args.len() % 2 == 1 {
                // A leading numeric level only makes sense when the
                // remaining arguments pair up.
                spec.parse::<usize>()
                    .ok()
                    .map(|lv| depth.checked_sub(1 + lv).unwrap_or(GLOBAL))
            } else {
                None
            };
            if let Some(t) = parsed {
                target = t;
                rest = &args[1..];
            }
        }
        if rest.is_empty() || !rest.len().is_multiple_of(2) {
            return Err(Exc::err(
                "wrong # args: should be \"upvar ?level? otherVar localVar ...\"",
            ));
        }
        if target != GLOBAL && target >= depth {
            return Err(Exc::err("upvar: bad level"));
        }
        for pair in rest.chunks(2) {
            // `global` outranks `upvar` for the same local name.
            let local = pair[1].as_str().into_owned();
            if !matches!(frame.links.get(&local), Some(Link::Global)) {
                let other = pair[0].as_str().into_owned();
                frame.links.insert(local, Link::Up(target, other));
            }
        }
        Ok(Value::empty())
    }

    pub(crate) fn cmd_info(&mut self, args: &[Value]) -> Result<Value, Exc> {
        let sub = args
            .first()
            .ok_or_else(|| Exc::err("wrong # args: info"))?
            .as_str();
        match sub.as_ref() {
            "exists" => {
                let spec = args.get(1).ok_or_else(|| Exc::err("info exists varName"))?;
                let spec = spec.as_str();
                let (n, i) = Self::split_varname(&spec);
                Ok(Value::bool(self.var_exists(n, i)))
            }
            "procs" => Ok(Value::list(
                self.proc_names().into_iter().map(Value::from).collect(),
            )),
            "level" => Ok(Value::Int(self.frames.len() as i64)),
            other => Err(Exc::err(format!("unknown info subcommand \"{other}\""))),
        }
    }
}

// ----------------------------------------------------------------------
// Variable access, shared by the by-name and by-slot paths.

fn read(var: Option<&Var>, name: &str, idx: Option<&str>) -> Result<Value, Exc> {
    match (var, idx) {
        (Some(Var::Scalar(v)), None) => Ok(v.clone()),
        (Some(Var::Array(a)), Some(i)) => a
            .get(i)
            .cloned()
            .ok_or_else(|| Exc::err(format!("can't read \"{name}({i})\": no such element"))),
        (Some(Var::Array(_)), None) => Err(Exc::err(format!(
            "can't read \"{name}\": variable is array"
        ))),
        (Some(Var::Scalar(_)), Some(_)) => Err(Exc::err(format!(
            "can't read \"{name}\": variable isn't array"
        ))),
        _ => Err(Exc::err(format!("can't read \"{name}\": no such variable"))),
    }
}

fn write(var: Option<&mut Var>, name: &str, idx: Option<&str>, v: Value) -> Result<(), Exc> {
    let Some(var) = var else {
        return Err(Exc::err(format!("can't set \"{name}\": no such variable")));
    };
    match (&mut *var, idx) {
        (Var::Array(_), None) => Err(Exc::err(format!("can't set \"{name}\": variable is array"))),
        (_, None) => {
            *var = Var::Scalar(v);
            Ok(())
        }
        (Var::Scalar(_), Some(i)) => Err(Exc::err(format!(
            "can't set \"{name}({i})\": variable isn't array"
        ))),
        (Var::Array(a), Some(i)) => {
            a.insert(i.to_owned(), v);
            Ok(())
        }
        (Var::Unset, Some(i)) => {
            *var = Var::Array(HashMap::from([(i.to_owned(), v)]));
            Ok(())
        }
    }
}

/// See [`Interp::var_modify`]. The error texts are those of the
/// exists-then-read-then-write sequence this replaces.
fn modify(
    var: Option<&mut Var>,
    name: &str,
    idx: Option<&str>,
    default: Value,
    f: impl FnOnce(&mut Value) -> Result<(), Exc>,
) -> Result<Value, Exc> {
    let current = match (var, idx) {
        (Some(Var::Scalar(v)), None) => v,
        (Some(v @ Var::Array(_)), None) => return read(Some(v), name, None),
        (Some(Var::Array(a)), Some(i)) if a.contains_key(i) => match a.get_mut(i) {
            Some(v) => v,
            None => return read(None, name, idx),
        },
        (var, _) => {
            let mut v = default;
            f(&mut v)?;
            write(var, name, idx, v.clone())?;
            return Ok(v);
        }
    };
    f(current)?;
    Ok(current.clone())
}

fn incr_by(by: i64) -> impl FnOnce(&mut Value) -> Result<(), Exc> {
    move |v| {
        *v = Value::Int(v.as_int()?.wrapping_add(by));
        Ok(())
    }
}

fn append_all(args: &[Value]) -> impl FnOnce(&mut Value) -> Result<(), Exc> + '_ {
    move |v| {
        let mut s = v.as_str().into_owned();
        for a in args {
            a.write_to(&mut s);
        }
        *v = Value::from(s);
        Ok(())
    }
}

fn lappend_all(args: &[Value]) -> impl FnOnce(&mut Value) -> Result<(), Exc> + '_ {
    move |v| {
        v.list_mut()?.extend_from_slice(args);
        Ok(())
    }
}
