//! The compile pass: a parsed [`Script`] lowered once to a flat
//! instruction vector, and the one source→program cache.
//!
//! What is fixed at compile time: word structure (literal words become
//! `Push`, `$name` a slot load, `"a$b[c]"` pushes plus a `Concat`);
//! literal `[cmd]` substitutions and braced bodies, compiled inline;
//! control flow (`if`/`while`/`for`/`foreach`/`switch`/`catch` become
//! jumps and handler regions); `expr` (operand list + operator code,
//! see [`crate::expr`]); literal command names (builtin function
//! pointer, else a proc-then-host call by name); literal variable names
//! (frame slots). What stays for run time: computed command and
//! variable names, `upvar`/`global` links, arrays, and any command
//! whose structure words are not literal — `if $c $b`, `eval`, unbraced
//! `expr` — which [`Op::Invoke`], [`Op::EvalSrc`] and [`Op::ExprSrc`]
//! compile on first use through [`script`] / [`expression`].
//!
//! Step charging is per opcode and mirrors the language definition, not
//! the instruction count: [`Op::Step`] opens every command, every
//! expression evaluation and every loop test, and `ForeachNext` charges
//! per iteration. Nothing else charges.
//!
//! Four shapes are fused as they are emitted, none of them a `Step`: a
//! `set`/`incr` whose result the next `Pop` discards becomes
//! [`Op::SetDrop`]/[`Op::IncrDrop`] (see [`Compiler::emit`]); an `incr`
//! by a literal integer carries it instead of pushing it; an expression
//! that is one binary operator over two substitutions becomes
//! [`Op::Bin`]; and a `Bin` that an `if`/loop test branches on becomes
//! [`Op::BinJumpIfFalse`]. A fused pair never has a jump target on its
//! second instruction, so every path through the code runs what it ran
//! unfused, and steps, results, errors and output are unchanged.
//!
//! A body or `[cmd]` whose text does not parse compiles to a run-time
//! [`Op::EvalSrc`] of that text, so its parse error is raised when — and
//! only when — it first runs, and (errors never being cached) every
//! time after.

use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;

use crate::builtins::{self, Builtin};
use crate::error::ScriptError;
use crate::expr::{self, BinFn, EOp, Operand};
use crate::parser::{parse_script, Command, Frag, Script, Word};
use crate::value::{parse_int, parse_list, Value};

/// One instruction. Operands live on the VM's value stack; "push"/"pop"
/// below refer to it.
pub(crate) enum Op {
    /// Charge one step (raises the uncatchable budget error).
    Step,
    Push(Value),
    Pop,
    /// Push scalar variable `slot`.
    Load(u32),
    /// Pop an index, push that element of array variable `slot`.
    LoadElem(u32),
    /// Pop n values, push their string forms concatenated.
    Concat(u32),
    /// Pop n values, push them joined by single spaces (`eval`/`expr`
    /// argument lists; one value passes through untouched).
    Join(u32),
    /// Depth accounting around a word-position `[cmd]` and `eval`.
    Enter,
    Leave,
    /// Pop argc arguments, push the builtin's result.
    Call(Builtin, u32),
    /// Literal non-builtin name: a proc, else a host command.
    CallUser(Rc<str>, u32),
    /// Computed name (or a control command with non-literal structure):
    /// pop n values — the name and its arguments — and dispatch.
    Invoke(u32),
    /// `set`/`incr`/`append`/`lappend` on a literal scalar name; the
    /// values they consume are on the stack.
    Set(u32),
    /// `incr`'s amount is a constant (1 when absent), or `None`: popped.
    Incr(u32, Option<i64>),
    /// `Set`/`Incr` whose result is discarded: nothing is pushed.
    SetDrop(u32),
    IncrDrop(u32, Option<i64>),
    Append(u32, u32),
    Lappend(u32, u32),
    /// Pop source text, run it as a script / evaluate it as an
    /// expression, through the program cache.
    EvalSrc,
    ExprSrc,
    /// Run operator code over the top n values (the operands).
    Expr(Rc<[EOp]>, u32),
    /// `Expr` whose code is one binary operator over its two operands:
    /// pop the right and left operand, push the result.
    Bin(BinFn),
    Jump(u32),
    /// Pop a value, coerce to boolean, jump when false.
    JumpIfFalse(u32),
    /// `Bin` and the `JumpIfFalse` testing its result.
    BinJumpIfFalse(BinFn, u32),
    /// Open a handler region: a loop body's resumes `break` at `brk` and
    /// `continue` at `cont`; a `catch` body's takes everything catchable
    /// to `brk`, the caught value and return code pushed.
    Region {
        catch: bool,
        brk: u32,
        cont: u32,
    },
    /// Close the innermost handler region.
    Unhandle,
    /// Pop value and code, store the value (if a variable was named),
    /// push the code.
    CatchStore(Option<Rc<str>>),
    /// Pop the list operand, push the iteration state (list, position).
    ForeachInit,
    /// Charge and bind the next element(s), or jump to `done`.
    ForeachNext {
        slots: Rc<[u32]>,
        done: u32,
    },
    /// `switch` over the argc evaluated arguments; see [`SwitchTable`].
    Switch(Rc<SwitchTable>, u32),
    Raise(Rc<ScriptError>),
}

/// A lowered `switch`. `clause_arg` is the argument the clause list was
/// compiled from; the VM re-derives it from the run-time flags and, if
/// a computed value turned out to be a flag itself, takes the dynamic
/// path instead.
pub(crate) struct SwitchTable {
    pub clause_arg: usize,
    /// The clause list's own defect (not a list / odd length), raised
    /// once the flags and value have been accepted.
    pub defect: Option<String>,
    pub arms: Vec<(Rc<str>, u32)>,
    pub end: u32,
}

/// Frame layout: which variable names own which slot.
#[derive(Default)]
pub(crate) struct Layout {
    pub names: Vec<Rc<str>>,
    pub slot_of: HashMap<Rc<str>, u32>,
}

/// A compiled script or expression.
pub(crate) struct Program {
    pub code: Vec<Op>,
    pub layout: Rc<Layout>,
}

// ----------------------------------------------------------------------
// The program cache.

/// Distinct sources retained before the cache is cleared wholesale.
const PROGRAM_CACHE_CAP: usize = 1024;

/// Source text → compiled forms. RDO execution evaluates the same few
/// sources over and over — each object's code blob, each proc body on
/// its first call — so compilation is memoized per thread (the
/// interpreter is single-threaded by construction). Parse *errors* are
/// never cached. Bounded by wholesale clearing at a cap, which keeps
/// the steady state (a few dozen sources) warm without LRU bookkeeping.
#[derive(Default)]
struct Compiled {
    script: Option<Rc<Program>>,
    expr: Option<Rc<Program>>,
}

thread_local! {
    static PROGRAMS: RefCell<HashMap<Rc<str>, Compiled>> = RefCell::new(HashMap::new());
}

fn cached(
    src: &str,
    field: fn(&mut Compiled) -> &mut Option<Rc<Program>>,
    compile: impl FnOnce() -> Result<Program, ScriptError>,
) -> Result<Rc<Program>, ScriptError> {
    PROGRAMS.with(|cache| {
        if let Some(hit) = cache
            .borrow_mut()
            .get_mut(src)
            .and_then(|c| field(c).clone())
        {
            return Ok(hit);
        }
        // Not borrowed across `compile`: it recurses into nested text.
        let prog = Rc::new(compile()?);
        let mut cache = cache.borrow_mut();
        if cache.len() >= PROGRAM_CACHE_CAP {
            cache.clear();
        }
        *field(cache.entry(Rc::from(src)).or_default()) = Some(Rc::clone(&prog));
        Ok(prog)
    })
}

/// The compiled form of script `src`, compiling on first use.
pub(crate) fn script(src: &str) -> Result<Rc<Program>, ScriptError> {
    cached(
        src,
        |c| &mut c.script,
        || {
            let parsed = parse_script(src)?;
            let mut c = Compiler::new(true);
            c.script(&parsed);
            Ok(c.finish())
        },
    )
}

/// The compiled form of expression `src` (it charges its own step).
pub(crate) fn expression(src: &str) -> Result<Rc<Program>, ScriptError> {
    cached(
        src,
        |c| &mut c.expr,
        || {
            let mut c = Compiler::new(true);
            c.expr(src);
            Ok(c.finish())
        },
    )
}

/// The commands the compiler lowers instead of calling.
const CONTROL: [&str; 8] = [
    "if", "while", "for", "foreach", "switch", "catch", "eval", "expr",
];

/// Glue for a control command whose words were only known at run time:
/// the command is lowered from the evaluated words exactly as a literal
/// one would be, except that bodies and conditions stay references into
/// the cache ([`Op::EvalSrc`]/[`Op::ExprSrc`]) instead of being inlined,
/// so repeating the command recompiles a handful of jumps and nothing
/// else. The command's step has already been charged.
pub(crate) fn control_glue(name: &str, args: &[Value]) -> Option<Program> {
    if !CONTROL.contains(&name) {
        return None;
    }
    let words: Vec<Word> = args.iter().map(|v| Word::Braced(v.as_rc_str())).collect();
    let lits: Vec<Option<Rc<str>>> = words.iter().map(literal).collect();
    let mut c = Compiler::new(false);
    c.control(name, &words, &lits).then(|| c.finish())
}

// ----------------------------------------------------------------------
// The compiler.

#[derive(Default)]
struct Compiler {
    code: Vec<Op>,
    names: Vec<Rc<str>>,
    slot_of: HashMap<Rc<str>, u32>,
    /// Compile bodies and conditions in place (false only for
    /// [`control_glue`]).
    inline: bool,
    /// Fuse instructions as they are emitted (false only in the tests'
    /// reference lowering).
    fuse: bool,
    /// The latest position a jump or handler lands on. Targets are taken
    /// at the position about to be emitted, so the instruction there is
    /// a target iff this is its position.
    label: u32,
}

/// The word's text if no substitution can change it.
fn literal(w: &Word) -> Option<Rc<str>> {
    match w {
        Word::Braced(s) => Some(Rc::clone(s)),
        Word::Subst(frags) => match frags.as_slice() {
            [] => Some(Rc::from("")),
            [Frag::Lit(s)] => Some(Rc::clone(s)),
            _ => None,
        },
    }
}

/// Whether `spec` names a scalar (`name`), not an element (`name(i)`).
fn is_scalar_name(spec: &str) -> bool {
    crate::interp::Interp::split_varname(spec).1.is_none()
}

fn raise(msg: impl Into<String>) -> Op {
    Op::Raise(Rc::new(ScriptError::new(msg)))
}

/// Whether a new compiler fuses. Always, outside the tests' reference
/// lowering ([`unfused`]).
#[cfg(not(test))]
fn fusing() -> bool {
    true
}

#[cfg(test)]
thread_local! {
    static UNFUSED: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

#[cfg(test)]
fn fusing() -> bool {
    !UNFUSED.with(std::cell::Cell::get)
}

/// Runs `f` with this thread compiling the reference lowering — the
/// one without fusion — from an empty program cache, emptied again
/// after, so neither lowering ever runs a program of the other's.
#[cfg(test)]
pub(crate) fn unfused<R>(f: impl FnOnce() -> R) -> R {
    struct Restore;
    impl Drop for Restore {
        fn drop(&mut self) {
            UNFUSED.with(|u| u.set(false));
            PROGRAMS.with(|c| c.borrow_mut().clear());
        }
    }
    PROGRAMS.with(|c| c.borrow_mut().clear());
    UNFUSED.with(|u| u.set(true));
    let _restore = Restore;
    f()
}

impl Compiler {
    fn new(inline: bool) -> Compiler {
        Compiler {
            inline,
            fuse: fusing(),
            ..Compiler::default()
        }
    }

    fn finish(self) -> Program {
        Program {
            code: self.code,
            layout: Rc::new(Layout {
                names: self.names,
                slot_of: self.slot_of,
            }),
        }
    }

    fn slot(&mut self, name: &str) -> u32 {
        if let Some(&s) = self.slot_of.get(name) {
            return s;
        }
        let name: Rc<str> = Rc::from(name);
        self.names.push(Rc::clone(&name));
        self.slot_of.insert(name, self.names.len() as u32 - 1);
        self.names.len() as u32 - 1
    }

    /// Appends `op`. A `Pop` directly after a `Set`/`Incr`, or a
    /// `JumpIfFalse` directly after a `Bin`, is fused into it — unless a
    /// jump lands on `op`, whose other way in still pushes the value it
    /// consumes (after `if {…} {incr x} else {…}`, the then-branch jumps
    /// to the `Pop` that follows the else-branch's `incr`).
    fn emit(&mut self, op: Op) -> usize {
        if self.fuse && self.label != self.here() {
            let fused = match (&op, self.code.last()) {
                (Op::Pop, Some(&Op::Set(slot))) => Some(Op::SetDrop(slot)),
                (Op::Pop, Some(&Op::Incr(slot, by))) => Some(Op::IncrDrop(slot, by)),
                (&Op::JumpIfFalse(to), Some(&Op::Bin(f))) => Some(Op::BinJumpIfFalse(f, to)),
                _ => None,
            };
            if let Some(fused) = fused {
                let at = self.code.len() - 1;
                self.code[at] = fused;
                return at;
            }
        }
        self.code.push(op);
        self.code.len() - 1
    }

    /// Opens a handler region; [`Compiler::land`] sets where it resumes.
    fn region(&mut self, catch: bool, cont: u32) -> usize {
        self.emit(Op::Region {
            catch,
            brk: 0,
            cont,
        })
    }

    fn here(&self) -> u32 {
        self.code.len() as u32
    }

    /// The next instruction's position, which something will jump to.
    fn label(&mut self) -> u32 {
        self.label = self.here();
        self.label
    }

    /// Points the jump (or handler target) at `at` to the next
    /// instruction.
    fn land(&mut self, at: usize) {
        let here = self.label();
        match &mut self.code[at] {
            Op::Jump(t)
            | Op::JumpIfFalse(t)
            | Op::BinJumpIfFalse(_, t)
            | Op::Region { brk: t, .. } => *t = here,
            Op::ForeachNext { done, .. } => *done = here,
            _ => {}
        }
    }

    /// Emits a script; exactly one value (its result) is left pushed.
    fn script(&mut self, s: &Script) {
        if s.commands.is_empty() {
            self.emit(Op::Push(Value::empty()));
        }
        for (i, cmd) in s.commands.iter().enumerate() {
            if i > 0 {
                self.emit(Op::Pop);
            }
            self.command(cmd);
        }
    }

    /// Emits script text `src` (a body or a `[cmd]`), one value pushed.
    fn body(&mut self, src: &Rc<str>) {
        if self.inline {
            if let Ok(parsed) = parse_script(src) {
                return self.script(&parsed);
            }
        }
        self.emit(Op::Push(Value::Str(Rc::clone(src))));
        self.emit(Op::EvalSrc);
    }

    /// Emits a loop body: run, discard the value, close the region.
    fn loop_body(&mut self, src: &Rc<str>) {
        self.body(src);
        self.emit(Op::Pop);
        self.emit(Op::Unhandle);
    }

    /// Emits an expression evaluation (step included), result pushed.
    fn expr(&mut self, src: &str) {
        if !self.inline {
            self.emit(Op::Push(Value::str(src)));
            self.emit(Op::ExprSrc);
            return;
        }
        self.emit(Op::Step);
        let (operands, code) = expr::lower(src);
        let n = operands.len() as u32;
        for o in operands {
            match o {
                Operand::Var(name, None) => {
                    let slot = self.slot(&name);
                    self.emit(Op::Load(slot));
                }
                Operand::Var(name, Some(idx)) => {
                    self.emit(Op::Push(Value::from(idx)));
                    let slot = self.slot(&name);
                    self.emit(Op::LoadElem(slot));
                }
                Operand::Cmd(src) => self.body(&src),
            }
        }
        let op = match (&*code, self.fuse) {
            ([EOp::Arg(0), EOp::Arg(1), EOp::Bin(f)], true) => Op::Bin(*f),
            _ => Op::Expr(code, n),
        };
        self.emit(op);
    }

    fn word(&mut self, w: &Word) {
        match w {
            Word::Braced(s) => {
                self.emit(Op::Push(Value::Str(Rc::clone(s))));
            }
            Word::Subst(frags) => self.frags(frags),
        }
    }

    fn frags(&mut self, frags: &[Frag]) {
        // A single fragment keeps the value's representation (a list
        // stays a list); several concatenate as strings.
        for f in frags {
            match f {
                Frag::Lit(s) => {
                    self.emit(Op::Push(Value::Str(Rc::clone(s))));
                }
                Frag::Var(name, None) => {
                    let slot = self.slot(name);
                    self.emit(Op::Load(slot));
                }
                Frag::Var(name, Some(idx)) => {
                    self.frags(idx);
                    let slot = self.slot(name);
                    self.emit(Op::LoadElem(slot));
                }
                Frag::Cmd(src) => {
                    self.emit(Op::Enter);
                    self.body(src);
                    self.emit(Op::Leave);
                }
            }
        }
        if frags.len() != 1 {
            self.emit(Op::Concat(frags.len() as u32));
        }
    }

    fn words(&mut self, ws: &[Word]) -> u32 {
        for w in ws {
            self.word(w);
        }
        ws.len() as u32
    }

    fn command(&mut self, cmd: &Command) {
        self.emit(Op::Step);
        let lits: Vec<Option<Rc<str>>> = cmd.words.iter().map(literal).collect();
        let Some(Some(name)) = lits.first() else {
            let n = self.words(&cmd.words);
            self.emit(Op::Invoke(n));
            return;
        };
        let (args, la) = (&cmd.words[1..], &lits[1..]);
        if self.control(name, args, la) || self.variable(name, args, la) {
            return;
        }
        match builtins::lookup(name) {
            Some(f) => {
                let n = self.words(args);
                self.emit(Op::Call(f, n));
            }
            // A control command some structure word of which is
            // computed: decided at run time, from the evaluated words.
            None if CONTROL.contains(&&**name) => {
                let n = self.words(&cmd.words);
                self.emit(Op::Invoke(n));
            }
            None => {
                let n = self.words(args);
                self.emit(Op::CallUser(Rc::clone(name), n));
            }
        }
    }

    /// `set`/`incr`/`append`/`lappend` on a literal scalar name resolve
    /// the variable to its slot; anything else is the ordinary builtin.
    fn variable(&mut self, name: &str, args: &[Word], la: &[Option<Rc<str>>]) -> bool {
        let Some(Some(var)) = la
            .first()
            .filter(|v| v.as_deref().is_some_and(is_scalar_name))
        else {
            return false;
        };
        let rest = args.len() as u32 - 1;
        let op = match (name, rest) {
            ("set", 0) => Op::Load(self.slot(var)),
            ("set", 1) => Op::Set(self.slot(var)),
            ("incr", 0) => Op::Incr(self.slot(var), Some(1)),
            ("incr", 1) => {
                // A literal amount that reads as an integer is carried:
                // `Push` and `Incr` fused, no text parsed per run.
                let by = la[1].as_deref().filter(|_| self.fuse).and_then(parse_int);
                Op::Incr(self.slot(var), by)
            }
            ("append", _) => Op::Append(self.slot(var), rest),
            ("lappend", _) => Op::Lappend(self.slot(var), rest),
            _ => return false,
        };
        if !matches!(op, Op::Incr(_, Some(_))) {
            self.words(&args[1..]);
        }
        self.emit(op);
        true
    }

    /// Lowers a script- or expression-taking command whose structure is
    /// literal; `false` (nothing emitted) leaves it to run time. The
    /// words in order are evaluated first, errors of shape raised after,
    /// as the command itself would.
    fn control(&mut self, name: &str, args: &[Word], la: &[Option<Rc<str>>]) -> bool {
        let all_literal = la.iter().all(Option::is_some);
        let lit = |i: usize| la.get(i).and_then(|w| w.as_deref());
        match name {
            "eval" | "expr" => {
                if let (true, "expr", [Some(src)]) = (self.inline, name, la) {
                    self.expr(src);
                    return true;
                }
                let n = self.words(args);
                self.emit(Op::Join(n));
                if name == "expr" {
                    self.emit(Op::ExprSrc);
                } else {
                    self.emit(Op::Enter);
                    self.emit(Op::EvalSrc);
                    self.emit(Op::Leave);
                }
            }
            "if" if all_literal => self.if_(la),
            "while" | "for" if all_literal => {
                let (init, test, next, body) = match (name, la) {
                    ("while", [Some(t), Some(b)]) => (None, t, None, b),
                    ("for", [Some(i), Some(t), Some(n), Some(b)]) => (Some(i), t, Some(n), b),
                    _ => {
                        let usage = match name {
                            "while" => "while test command",
                            _ => "for start test next command",
                        };
                        self.emit(raise(format!("wrong # args: should be \"{usage}\"")));
                        return true;
                    }
                };
                if let Some(init) = init {
                    self.body(init);
                    self.emit(Op::Pop);
                }
                let top = self.label();
                self.emit(Op::Step);
                self.expr(test);
                let exit = self.emit(Op::JumpIfFalse(0));
                let region = self.region(false, top);
                self.loop_body(body);
                if let Some(next) = next {
                    // `continue` lands here: `next` runs outside the
                    // region, so a `break` inside it propagates.
                    let here = self.label();
                    if let Op::Region { cont, .. } = &mut self.code[region] {
                        *cont = here;
                    }
                    self.body(next);
                    self.emit(Op::Pop);
                }
                self.emit(Op::Jump(top));
                self.land(exit);
                self.land(region);
                self.emit(Op::Push(Value::empty()));
            }
            "foreach" => {
                let (Some(vars), Some(body), 3) = (lit(0), la.get(2).cloned().flatten(), la.len())
                else {
                    if all_literal {
                        self.emit(raise(
                            "wrong # args: should be \"foreach varList list body\"",
                        ));
                    }
                    return all_literal;
                };
                let names = parse_list(vars);
                self.word(&args[1]);
                match names {
                    Err(e) => {
                        self.emit(Op::Raise(Rc::new(e)));
                    }
                    Ok(names) if names.is_empty() => {
                        self.emit(raise("foreach: empty variable list"));
                    }
                    Ok(names) => {
                        let slots = names.iter().map(|n| self.slot(&n.as_str())).collect();
                        self.emit(Op::ForeachInit);
                        let top = self.label();
                        let next = self.emit(Op::ForeachNext { slots, done: 0 });
                        let region = self.region(false, top);
                        self.loop_body(&body);
                        self.emit(Op::Jump(top));
                        self.land(next);
                        self.land(region);
                        self.emit(Op::Pop);
                        self.emit(Op::Pop);
                        self.emit(Op::Push(Value::empty()));
                    }
                }
            }
            "catch" if all_literal => match la.first() {
                Some(Some(body)) => {
                    let region = self.region(true, 0);
                    self.body(body);
                    self.emit(Op::Unhandle);
                    self.emit(Op::Push(Value::Int(0)));
                    self.land(region);
                    self.emit(Op::CatchStore(la.get(1).cloned().flatten()));
                }
                _ => {
                    self.emit(raise("wrong # args: catch"));
                }
            },
            "switch" => return self.switch(args, la, all_literal),
            _ => return false,
        }
        true
    }

    fn if_(&mut self, la: &[Option<Rc<str>>]) {
        let lit = |i: usize| la.get(i).and_then(|w| w.clone());
        let mut ends = Vec::new();
        let mut i = 0;
        loop {
            let Some(test) = lit(i) else {
                self.emit(raise("wrong # args: no expression after \"if\""));
                break;
            };
            self.expr(&test);
            let skip = self.emit(Op::JumpIfFalse(0));
            let mut bi = i + 1;
            if lit(bi).as_deref() == Some("then") {
                bi += 1;
            }
            // A missing body is reported whichever way the test went.
            let Some(body) = lit(bi) else {
                self.land(skip);
                self.emit(raise("wrong # args: no script after \"if\" condition"));
                break;
            };
            self.body(&body);
            ends.push(self.emit(Op::Jump(0)));
            self.land(skip);
            match lit(bi + 1).as_deref() {
                Some("elseif") => i = bi + 2,
                Some("else") => {
                    match lit(bi + 2) {
                        Some(body) => self.body(&body),
                        None => {
                            self.emit(raise("wrong # args: no script after \"else\""));
                        }
                    }
                    break;
                }
                Some(_) => {
                    self.emit(raise("expected \"elseif\" or \"else\""));
                    break;
                }
                None => {
                    self.emit(Op::Push(Value::empty()));
                    break;
                }
            }
        }
        for at in ends {
            self.land(at);
        }
    }

    /// `switch ?-exact|-glob|--? value {pattern body …}`: every word but
    /// the value must be literal. The arguments are all evaluated, then
    /// [`Op::Switch`] picks an arm; arm bodies follow it.
    fn switch(&mut self, args: &[Word], la: &[Option<Rc<str>>], all_literal: bool) -> bool {
        let mut value_arg = 0;
        while let Some(Some(flag)) = la.get(value_arg) {
            match &**flag {
                "-glob" | "-exact" => value_arg += 1,
                "--" => {
                    value_arg += 1;
                    break;
                }
                _ => break,
            }
        }
        let clause_arg = value_arg + 1;
        let Some(Some(clauses)) = la.get(clause_arg) else {
            if all_literal {
                self.emit(raise("wrong # args: switch"));
            }
            return all_literal;
        };
        if la
            .iter()
            .enumerate()
            .any(|(i, w)| w.is_none() && i != value_arg)
        {
            return false;
        }
        let n = self.words(args);
        let (clauses, defect) = match parse_list(clauses) {
            Ok(c) if c.len() % 2 != 0 => {
                (Vec::new(), Some("extra switch pattern with no body".into()))
            }
            Ok(c) => (c, None),
            Err(e) => (Vec::new(), Some(e.message)),
        };
        let at = self.emit(Op::Push(Value::empty())); // placeholder for Op::Switch
        let mut arms = Vec::new();
        let mut ends = Vec::new();
        for k in (0..clauses.len()).step_by(2) {
            // `-` falls through to the next body.
            let mut j = k + 1;
            while clauses[j].as_str() == "-" && j + 2 < clauses.len() {
                j += 2;
            }
            arms.push((clauses[k].as_rc_str(), self.label()));
            self.body(&clauses[j].as_rc_str());
            ends.push(self.emit(Op::Jump(0)));
        }
        for e in ends {
            self.land(e);
        }
        self.code[at] = Op::Switch(
            Rc::new(SwitchTable {
                clause_arg,
                defect,
                arms,
                end: self.label(),
            }),
            n,
        );
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_compile_per_source_and_parse_errors_are_never_cached() {
        let a = script("set cache_probe 1").unwrap();
        assert!(Rc::ptr_eq(&a, &script("set cache_probe 1").unwrap()));
        // The same text as an expression is a different program.
        assert!(!Rc::ptr_eq(&a, &expression("set cache_probe 1").unwrap()));
        for _ in 0..2 {
            assert!(script("puts {oops").is_err_and(|e| e.parse));
        }
        PROGRAMS.with(|c| assert!(!c.borrow().contains_key("puts {oops")));
        // A body that does not parse is the caller's problem only when
        // it runs: the enclosing script still compiles.
        assert!(script("if {0} {puts {oops}").is_err());
        assert!(script("if {0} {puts \"oops}").is_ok());
    }
}
