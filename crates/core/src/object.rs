//! Relocatable dynamic objects: data + code, and their execution
//! environment.
//!
//! An RDO bundles named data fields with a script (its *code*) defining
//! methods as procs. The same object executes unchanged at the client
//! or at the server — that is the "relocatable" in the name — inside a
//! budgeted interpreter whose host commands (`rover::get` etc.) expose
//! the object's own fields. Method execution reports the interpreter
//! steps consumed so the caller can charge CPU time on whichever host
//! ran it.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt;
use std::rc::Rc;

use rover_script::{Budget, HostEnv, Interp, ScriptError, Value};
use rover_wire::{Decoder, Encoder, Version, Wire, WireError};

use crate::urn::Urn;
use crate::RoverError;

/// A relocatable dynamic object.
#[derive(Clone, Debug, PartialEq)]
pub struct RoverObject {
    /// Location-independent name; the authority picks the home server.
    pub urn: Urn,
    /// Application type, selecting the server-side conflict resolver.
    pub type_name: String,
    /// Method definitions: script source evaluated before each method
    /// call (procs, typically).
    pub code: String,
    /// Named data fields.
    pub fields: Fields,
    /// Commit version at the home server (0 = never committed).
    pub version: Version,
    /// Loaded-interpreter cache (see [`MethodCache`]); never on the
    /// wire, never part of equality.
    cache: MethodCache,
}

/// An object's named data fields.
///
/// A field is text — that is what crosses the wire and what
/// [`RoverObject::size_bytes`] counts — held the way the interpreter
/// holds it: a shared string [`Value`], which the first `rover::get` of
/// it turns into the form that keeps its parsed list beside the text
/// ([`Value::into_memo`]). From then on `rover::get` hands the method
/// that value (a reference-count bump, not a copy), so a method that
/// walks the same index on every call parses it once per object image
/// rather than once per call; a field no method reads — a message body —
/// stays the one allocation it was decoded into. A clone of the object
/// shares every field with the original until one of them writes it.
/// Text and memo are replaced together, by `rover::set`, `rover::del`,
/// a rollback, or [`Fields::insert`] / [`Fields::remove`] from Rust;
/// nothing edits a field in place.
#[derive(Clone, Default, PartialEq)]
pub struct Fields(BTreeMap<String, Value>);

impl Fields {
    /// Creates an empty field map.
    pub fn new() -> Fields {
        Fields::default()
    }

    /// Sets `key` to `value`'s string form.
    pub fn insert(&mut self, key: String, value: impl Into<Value>) {
        self.0.insert(key, stored(value.into()));
    }

    /// Returns a field's text, if present.
    pub fn get(&self, key: &str) -> Option<&str> {
        self.0.get(key).map(text)
    }

    /// Removes a field; `true` if it was present.
    pub fn remove(&mut self, key: &str) -> bool {
        self.0.remove(key).is_some()
    }

    /// Whether `key` is a field.
    pub fn contains_key(&self, key: &str) -> bool {
        self.0.contains_key(key)
    }

    /// Field names, in order.
    pub fn keys(&self) -> impl ExactSizeIterator<Item = &String> {
        self.0.keys()
    }

    /// Every field's name and text, in name order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = (&String, &str)> {
        self.0.iter().map(|(k, v)| (k, text(v)))
    }

    /// Number of fields.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Whether there are no fields.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// A field's stored value: its form, not just its text.
    #[cfg(test)]
    pub(crate) fn value(&self, key: &str) -> Option<&Value> {
        self.0.get(key)
    }
}

/// The form a value is stored in: one that holds its text. A list keeps
/// its items beside it, so the method that reads back what it (or an
/// earlier call) built with `lappend` does not parse it.
fn stored(v: Value) -> Value {
    match v {
        Value::Str(_) | Value::Memo(_) => v,
        other => other.into_memo(),
    }
}

/// A stored field's text: every way in goes through [`stored`].
fn text(v: &Value) -> &str {
    v.text().unwrap_or_default()
}

impl<V: Into<Value>> FromIterator<(String, V)> for Fields {
    fn from_iter<I: IntoIterator<Item = (String, V)>>(iter: I) -> Fields {
        Fields(
            iter.into_iter()
                .map(|(k, v)| (k, stored(v.into())))
                .collect(),
        )
    }
}

impl fmt::Debug for Fields {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map().entries(self.iter()).finish()
    }
}

/// Cache of the interpreter produced by evaluating an object's `code`.
///
/// `run_method` used to rebuild a fresh interpreter and re-evaluate the
/// whole code blob on every invocation; this keeps the loaded template
/// and clones it per call instead. The cell is shared (`Rc`) rather
/// than per-value because the mutating invocation paths — client
/// export, server `Invoke` — clone the object and run the method on a
/// scratch copy: sharing means warming any clone warms the stored
/// original. A hit requires the entry's `code`
/// and `budget` to match the object's current ones, so mutating `code`
/// invalidates naturally. Cloning the template interpreter replays the
/// load's step count and output buffer exactly, keeping step accounting
/// byte-for-byte identical to a fresh load.
#[derive(Clone, Default)]
struct MethodCache(Rc<RefCell<Option<Rc<LoadedCode>>>>);

struct LoadedCode {
    code: String,
    budget: Budget,
    interp: Interp,
}

impl PartialEq for MethodCache {
    // The cache is invisible to object identity: two objects differing
    // only in cache warmth are equal.
    fn eq(&self, _: &Self) -> bool {
        true
    }
}

impl fmt::Debug for MethodCache {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let state = if self.0.borrow().is_some() {
            "warm"
        } else {
            "cold"
        };
        write!(f, "MethodCache({state})")
    }
}

impl RoverObject {
    /// Creates an object with empty code and fields.
    pub fn new(urn: Urn, type_name: &str) -> RoverObject {
        RoverObject {
            urn,
            type_name: type_name.to_owned(),
            code: String::new(),
            fields: Fields::new(),
            version: Version(0),
            cache: MethodCache::default(),
        }
    }

    /// Sets the method-definition script (builder style).
    pub fn with_code(mut self, code: &str) -> RoverObject {
        self.code = code.to_owned();
        self
    }

    /// Sets a data field (builder style).
    pub fn with_field(mut self, key: &str, value: &str) -> RoverObject {
        self.fields.insert(key.to_owned(), value);
        self
    }

    /// Returns a field's value, if present.
    pub fn field(&self, key: &str) -> Option<&str> {
        self.fields.get(key)
    }

    /// Returns the approximate in-memory / on-wire size in bytes, used
    /// for cache accounting and transfer modelling. A field counts as
    /// its text, whether or not its list form has been parsed.
    pub fn size_bytes(&self) -> usize {
        self.code.len()
            + self.urn.as_str().len()
            + self.type_name.len()
            + self
                .fields
                .iter()
                .map(|(k, v)| k.len() + v.len() + 8)
                .sum::<usize>()
    }

    /// Runs `method(args…)` against this object in a fresh budgeted
    /// interpreter, mutating fields through the `rover::*` host
    /// commands. Returns the result and execution accounting.
    ///
    /// # Examples
    ///
    /// ```
    /// use rover_core::{RoverObject, Urn};
    /// use rover_script::{Budget, Value};
    ///
    /// let mut obj = RoverObject::new(Urn::parse("urn:rover:d/c").unwrap(), "counter")
    ///     .with_code("proc bump {} {rover::set n [expr {[rover::get n 0] + 1}]}")
    ///     .with_field("n", "41");
    /// let run = obj.run_method("bump", &[], Budget::default()).unwrap();
    /// assert!(run.mutated);
    /// assert_eq!(obj.field("n"), Some("42"));
    /// ```
    pub fn run_method(
        &mut self,
        method: &str,
        args: &[Value],
        budget: Budget,
    ) -> Result<MethodRun, RoverError> {
        self.run(method, args, budget, true)
    }

    /// Runs a method that must leave the object as it found it: whatever
    /// the method wrote is undone before returning, and `mutated` says
    /// whether there was anything to undo. This is how a read-only
    /// invocation runs on a cached object in place, with no scratch copy.
    pub fn run_query(
        &mut self,
        method: &str,
        args: &[Value],
        budget: Budget,
    ) -> Result<MethodRun, RoverError> {
        self.run(method, args, budget, false)
    }

    fn run(
        &mut self,
        method: &str,
        args: &[Value],
        budget: Budget,
        keep_writes: bool,
    ) -> Result<MethodRun, RoverError> {
        let cached: Option<Rc<LoadedCode>> = {
            let cell = self.cache.0.borrow();
            match &*cell {
                Some(c) if c.code == self.code && c.budget == budget => Some(Rc::clone(c)),
                _ => None,
            }
        };
        let mut host = RdoHost {
            urn: &self.urn,
            fields: &mut self.fields.0,
            calls: 0,
            journal: BTreeMap::new(),
        };
        let script_error = |e: ScriptError, msg: String| {
            // Object code arrives off the wire: text that never parsed
            // is hostile/corrupt input, distinguished from a script
            // that ran and failed.
            if e.parse {
                RoverError::ScriptParse(msg)
            } else {
                RoverError::Exec(msg)
            }
        };
        let mut interp = match cached {
            // Cloning the template replays the load exactly: same steps
            // consumed, same pending `puts` output.
            Some(c) => c.interp.clone(),
            None => {
                let mut interp = Interp::with_budget(budget);
                if let Err(e) = interp.eval(&mut host, &self.code) {
                    host.roll_back();
                    let msg = format!("loading code for {}: {e}", self.urn);
                    return Err(script_error(e, msg));
                }
                // Cache only *pure* loads (no host calls): a load that
                // read or wrote fields would bake those reads into the
                // template and replay them stale on later invocations.
                if host.calls == 0 {
                    *self.cache.0.borrow_mut() = Some(Rc::new(LoadedCode {
                        code: self.code.clone(),
                        budget,
                        interp: interp.clone(),
                    }));
                }
                interp
            }
        };
        if !interp.has_proc(method) {
            // A missing method must not leave partial effects from code
            // loading (code should only define procs anyway).
            host.roll_back();
            return Err(RoverError::NoSuchMethod(method.to_owned()));
        }
        // Enter the method as the command `method arg…` with the
        // arguments as values, not as source text to parse back.
        match interp.call(&mut host, method, args) {
            Ok(result) => {
                let mutated = host.mutated();
                if !keep_writes {
                    host.roll_back();
                }
                Ok(MethodRun {
                    result,
                    steps: interp.steps_used(),
                    mutated,
                    output: interp.take_output(),
                })
            }
            Err(e) => {
                // Failed methods roll back field mutations.
                host.roll_back();
                let msg = e.to_string();
                Err(script_error(e, msg))
            }
        }
    }
}

/// Builds a *collection* object: an index whose `members` field lists
/// the URNs of a prefetchable group (see
/// [`crate::Client::prefetch_collection`]).
pub fn collection_object(urn: Urn, members: &[Urn]) -> RoverObject {
    let list: Vec<rover_script::Value> = members
        .iter()
        .map(|u| rover_script::Value::str(u.as_str()))
        .collect();
    RoverObject::new(urn, "collection")
        .with_field("members", &rover_script::format_list(&list))
        .with_code("proc size {} {llength [rover::get members {}]}")
}

/// Accounting for one RDO method execution.
#[derive(Clone, Debug, PartialEq)]
pub struct MethodRun {
    /// The method's return value.
    pub result: Value,
    /// Interpreter steps consumed (CPU-model input).
    pub steps: u64,
    /// Whether any field changed.
    pub mutated: bool,
    /// Captured `puts` output.
    pub output: String,
}

/// Host commands exposed to RDO code.
///
/// | Command | Effect |
/// |---|---|
/// | `rover::get key` | read field (error if missing) |
/// | `rover::get key default` | read field with default |
/// | `rover::set key value` | write field |
/// | `rover::has key` | 1 if field exists |
/// | `rover::del key` | remove field |
/// | `rover::keys ?glob?` | list field names |
/// | `rover::urn` | this object's URN |
struct RdoHost<'a> {
    urn: &'a Urn,
    fields: &'a mut BTreeMap<String, Value>,
    /// Handled `rover::*` invocations; `run_method` caches a loaded
    /// interpreter only when the load made none (a pure load).
    calls: u64,
    /// Write journal: each key's value (`None` = absent) before this
    /// run first wrote it. Rollback and `mutated` cost what the run
    /// wrote, not what the object holds, and a rollback puts back the
    /// value itself, parsed list form included.
    journal: BTreeMap<String, Option<Value>>,
}

impl RdoHost<'_> {
    /// A field as `rover::get` hands it out: in the memoised form, which
    /// the stored value takes the first time a method reads it.
    fn read(&mut self, key: &str) -> Option<Value> {
        let v = self.fields.get_mut(key)?;
        if !matches!(v, Value::Memo(_)) {
            *v = v.clone().into_memo();
        }
        Some(v.clone())
    }

    /// Records `key`'s pre-run value, once, ahead of a write to it.
    fn note(&mut self, key: &str) {
        if !self.journal.contains_key(key) {
            self.journal
                .insert(key.to_owned(), self.fields.get(key).cloned());
        }
    }

    /// Whether the fields now differ from what the run started with.
    fn mutated(&self) -> bool {
        self.journal
            .iter()
            .any(|(k, old)| self.fields.get(k) != old.as_ref())
    }

    /// Restores every written key to its pre-run value.
    fn roll_back(&mut self) {
        for (k, old) in std::mem::take(&mut self.journal) {
            match old {
                Some(v) => self.fields.insert(k, v),
                None => self.fields.remove(&k),
            };
        }
    }
}

impl HostEnv for RdoHost<'_> {
    fn call(
        &mut self,
        _interp: &mut Interp,
        name: &str,
        args: &[Value],
    ) -> Option<Result<Value, ScriptError>> {
        let r = match name {
            "rover::get" => match args {
                [k] => match self.read(&k.as_str()) {
                    Some(v) => Ok(v),
                    None => Err(ScriptError::new(format!("no such field \"{k}\""))),
                },
                [k, default] => Ok(self.read(&k.as_str()).unwrap_or_else(|| default.clone())),
                _ => Err(ScriptError::new("usage: rover::get key ?default?")),
            },
            "rover::set" => match args {
                [k, v] => {
                    let key = k.as_str();
                    self.note(&key);
                    self.fields.insert(key.into_owned(), stored(v.clone()));
                    Ok(v.clone())
                }
                _ => Err(ScriptError::new("usage: rover::set key value")),
            },
            "rover::has" => match args {
                [k] => Ok(Value::bool(self.fields.contains_key(&*k.as_str()))),
                _ => Err(ScriptError::new("usage: rover::has key")),
            },
            "rover::del" => match args {
                [k] => {
                    let key = k.as_str();
                    self.note(&key);
                    self.fields.remove(&*key);
                    Ok(Value::empty())
                }
                _ => Err(ScriptError::new("usage: rover::del key")),
            },
            "rover::keys" => {
                let pat = args.first().map(|v| v.as_str());
                let keys: Vec<Value> = self
                    .fields
                    .keys()
                    .filter(|k| pat.as_deref().is_none_or(|p| glob_lite(p, k)))
                    .map(Value::str)
                    .collect();
                Ok(Value::list(keys))
            }
            "rover::urn" => Ok(Value::str(self.urn.as_str())),
            _ => return None,
        };
        self.calls += 1;
        Some(r)
    }
}

// Minimal glob (`*` and `?`, nothing else special) for rover::keys; the
// full matcher lives in the script crate's `string match`. Iterative
// with one backtrack point — the last `*` and the text position it was
// last tried at — so a hostile pattern costs |pattern|·|key|, not 2^stars.
fn glob_lite(pat: &str, s: &str) -> bool {
    fn go<C: Copy + PartialEq + From<u8>>(p: &[C], t: &[C]) -> bool {
        let (mut pi, mut ti) = (0, 0);
        let mut star: Option<(usize, usize)> = None;
        loop {
            match (p.get(pi), t.get(ti)) {
                (Some(&c), _) if c == C::from(b'*') => {
                    star = Some((pi + 1, ti));
                    pi += 1;
                }
                (None, None) => return true,
                (Some(&c), Some(&x)) if c == C::from(b'?') || c == x => (pi, ti) = (pi + 1, ti + 1),
                _ => match star {
                    Some((after, at)) if at < t.len() => {
                        star = Some((after, at + 1));
                        (pi, ti) = (after, at + 1);
                    }
                    _ => return false,
                },
            }
        }
    }
    if pat.is_ascii() && s.is_ascii() {
        return go(pat.as_bytes(), s.as_bytes());
    }
    let (p, t): (Vec<char>, Vec<char>) = (pat.chars().collect(), s.chars().collect());
    go(&p, &t)
}

impl Wire for RoverObject {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_str(self.urn.as_str());
        enc.put_str(&self.type_name);
        enc.put_str(&self.code);
        self.version.encode(enc);
        enc.put_seq(self.fields.iter(), |e, (k, v)| {
            e.put_str(k);
            e.put_str(v);
        });
    }

    fn decode(dec: &mut Decoder<'_>) -> Result<Self, WireError> {
        let urn = dec.get_str()?;
        let urn = Urn::parse(&urn).map_err(|_| WireError::BadTag(0xBD))?;
        let type_name = dec.get_str()?;
        let code = dec.get_str()?;
        let version = Version::decode(dec)?;
        let fields = dec.get_seq(|d| Ok((d.get_str()?, Value::str(d.str_ref()?))))?;
        Ok(RoverObject {
            urn,
            type_name,
            code,
            fields,
            version,
            cache: MethodCache::default(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The matcher `glob_lite` replaced, kept as the reference: it
    /// retries every suffix at each `*`, recursively.
    fn glob_lite_recursive(pat: &str, s: &str) -> bool {
        let p: Vec<char> = pat.chars().collect();
        let t: Vec<char> = s.chars().collect();
        fn go(p: &[char], t: &[char]) -> bool {
            match p.first() {
                None => t.is_empty(),
                Some('*') => (0..=t.len()).any(|k| go(&p[1..], &t[k..])),
                Some('?') => !t.is_empty() && go(&p[1..], &t[1..]),
                Some(&c) => t.first() == Some(&c) && go(&p[1..], &t[1..]),
            }
        }
        go(&p, &t)
    }

    /// Strings of up to 12 of the full matcher's metacharacters — only
    /// `*` and `?` are special here — two letters, and now and then a
    /// multi-byte letter (the `char` path).
    fn glob_text() -> impl Strategy<Value = String> {
        const ALPHABET: [char; 9] = ['a', 'b', '*', '?', '[', ']', '-', '\\', 'é'];
        proptest::collection::vec(0..ALPHABET.len(), 0..=12)
            .prop_map(|ix| ix.into_iter().map(|i| ALPHABET[i]).collect())
    }

    proptest! {
        #[test]
        fn glob_differential(pat in glob_text(), text in glob_text()) {
            prop_assert_eq!(
                glob_lite(&pat, &text),
                glob_lite_recursive(&pat, &text),
                "pattern {:?} text {:?}", pat, text
            );
        }
    }

    #[test]
    fn keys_pattern_cost_is_bounded() {
        // Sixteen stars over a 4 KB field name: the recursive matcher
        // would still be running; `[` and `\\` stay literal.
        let long = "a".repeat(4096);
        let mut obj = RoverObject::new(Urn::parse("urn:rover:t/k").unwrap(), "t")
            .with_code("proc keys {p} {rover::keys $p}")
            .with_field(&long, "1")
            .with_field(&format!("{long}b"), "2")
            .with_field("x[1]", "3")
            .with_field("x\\y", "4");
        let mut keys = |pat: &str| {
            let t0 = std::time::Instant::now();
            let run = obj.run_method("keys", &[Value::str(pat)], Budget::default());
            assert!(
                t0.elapsed().as_secs() < 5,
                "pattern {pat:?} took {:?}",
                t0.elapsed()
            );
            run.unwrap().result.as_list().unwrap().len()
        };
        assert_eq!(keys(&format!("{}b", "*a".repeat(16))), 1);
        assert_eq!(keys(&format!("{}c", "*a".repeat(16))), 0);
        assert_eq!(keys("*a*"), 2);
        assert_eq!(keys("x[1]"), 1);
        assert_eq!(keys("x\\?"), 1);
        assert_eq!(keys("x?*"), 2);
    }

    fn counter() -> RoverObject {
        RoverObject::new(Urn::parse("urn:rover:test/counter").unwrap(), "counter")
            .with_code(
                "proc get {} {rover::get n 0}
                 proc add {k} {rover::set n [expr {[rover::get n 0] + $k}]}
                 proc reset {} {rover::del n}",
            )
            .with_field("n", "10")
    }

    #[test]
    fn method_reads_and_writes_fields() {
        let mut obj = counter();
        let run = obj
            .run_method("add", &[Value::Int(5)], Budget::default())
            .unwrap();
        assert!(run.mutated);
        assert!(run.steps > 0);
        assert_eq!(obj.field("n"), Some("15"));
        let run = obj.run_method("get", &[], Budget::default()).unwrap();
        assert_eq!(run.result, Value::Int(15));
        assert!(!run.mutated);
    }

    #[test]
    fn missing_method_is_reported_without_effects() {
        let mut obj = counter();
        let err = obj.run_method("nope", &[], Budget::default()).unwrap_err();
        assert!(matches!(err, RoverError::NoSuchMethod(_)));
        assert_eq!(obj.field("n"), Some("10"));
    }

    #[test]
    fn failing_method_rolls_back() {
        let mut obj = counter().with_code("proc boom {} {rover::set n 999; error kapow}");
        let err = obj.run_method("boom", &[], Budget::default()).unwrap_err();
        assert!(matches!(err, RoverError::Exec(_)));
        assert_eq!(obj.field("n"), Some("10"));
    }

    #[test]
    fn budget_bounds_method_execution() {
        let mut obj = counter().with_code("proc spin {} {while {1} {}}");
        let err = obj
            .run_method(
                "spin",
                &[],
                Budget {
                    max_steps: 5_000,
                    max_depth: 16,
                },
            )
            .unwrap_err();
        assert!(matches!(err, RoverError::Exec(msg) if msg.contains("budget")));
    }

    #[test]
    fn args_with_spaces_survive() {
        let mut obj = RoverObject::new(Urn::parse("urn:rover:t/echo").unwrap(), "echo")
            .with_code("proc echo {s} {return $s}");
        let run = obj
            .run_method(
                "echo",
                &[Value::str("two words {and braces}")],
                Budget::default(),
            )
            .unwrap();
        assert_eq!(run.result.as_str(), "two words {and braces}");
        // Arguments enter as values, never as source text: bytes no
        // list quoting round-trips through the parser (a backslash-
        // newline next to an unbalanced brace) arrive untouched, and
        // cost no program-cache entry each.
        let hostile = "x\\\ny{ $z [boom]";
        let run = obj
            .run_method("echo", &[Value::str(hostile)], Budget::default())
            .unwrap();
        assert_eq!(run.result.as_str(), hostile);
        assert_eq!(run.steps, 3);
    }

    #[test]
    fn wrong_arity_keeps_the_command_line_texts() {
        let mut obj = counter();
        for (args, want) in [
            (vec![], "wrong # args: should be \"add k\""),
            (
                vec![Value::Int(1), Value::Int(2)],
                "wrong # args: too many arguments to \"add\"",
            ),
        ] {
            let err = obj.run_method("add", &args, Budget::default()).unwrap_err();
            assert!(matches!(&err, RoverError::Exec(m) if m == want), "{err}");
        }
    }

    #[test]
    fn journal_restores_exactly_what_a_failed_method_wrote() {
        let mut obj = counter().with_field("keep", "k").with_code(
            "proc churn {} {
                     rover::set n 1; rover::set n 2; rover::del keep
                     rover::set fresh f; rover::del nothing; error kapow
                 }",
        );
        let before = obj.fields.clone();
        obj.run_method("churn", &[], Budget::default()).unwrap_err();
        assert_eq!(obj.fields, before);
    }

    #[test]
    fn mutated_means_final_fields_differ_from_initial() {
        let mut obj = counter().with_code(
            "proc same {} {rover::set n 99; rover::set n 10; rover::set t 1; rover::del t}
             proc peek {} {rover::set seen 1; rover::get n}",
        );
        let run = obj.run_method("same", &[], Budget::default()).unwrap();
        assert!(!run.mutated, "writes that cancel out are not a mutation");
        // A query reports the write and leaves the object as it was.
        let before = obj.fields.clone();
        let run = obj.run_query("peek", &[], Budget::default()).unwrap();
        assert!(run.mutated);
        assert_eq!(run.result, Value::Int(10));
        assert_eq!(obj.fields, before);
    }

    fn index() -> RoverObject {
        RoverObject::new(Urn::parse("urn:rover:t/index").unwrap(), "t")
            .with_code(
                "proc n {} {llength [rover::get ids]}
                 proc raw {} {rover::get ids}
                 proc put {v} {rover::set ids $v}
                 proc drop {} {rover::del ids}
                 proc fail {} {rover::set ids {x y z w}; error [llength [rover::get ids]]}
                 proc peek {} {rover::set ids {p q}; llength [rover::get ids]}",
            )
            .with_field("ids", "a b c")
    }

    fn call(obj: &mut RoverObject, method: &str, args: &[Value]) -> String {
        match obj.run_method(method, args, Budget::default()) {
            Ok(run) => run.result.as_str().into_owned(),
            Err(e) => e.to_string(),
        }
    }

    /// The stored value itself, to tell "same text" from "same value".
    fn memo_of(obj: &RoverObject, key: &str) -> Rc<rover_script::MemoStr> {
        match obj.fields.0.get(key) {
            Some(Value::Memo(m)) => Rc::clone(m),
            other => panic!("field {key} is {other:?}"),
        }
    }

    #[test]
    fn a_list_read_after_a_write_sees_the_write() {
        let mut obj = index();
        assert_eq!(call(&mut obj, "n", &[]), "3");
        // rover::set, with a string and with a list the VM built.
        call(&mut obj, "put", &[Value::str("a b")]);
        assert_eq!(call(&mut obj, "n", &[]), "2");
        call(&mut obj, "put", &[Value::list(vec![Value::Int(1); 5])]);
        assert_eq!(call(&mut obj, "n", &[]), "5");
        assert_eq!(obj.field("ids"), Some("1 1 1 1 1"));
        // Rust-side insert.
        obj.fields.insert("ids".into(), "solo");
        assert_eq!(call(&mut obj, "n", &[]), "1");
        // A failed method and a query both read their own write (4 and
        // 2 items) and put back the value they found, parsed list and all.
        let before = memo_of(&obj, "ids");
        assert!(call(&mut obj, "fail", &[]).ends_with('4'));
        let run = obj.run_query("peek", &[], Budget::default()).unwrap();
        assert_eq!((run.result.as_str().as_ref(), run.mutated), ("2", true));
        assert!(Rc::ptr_eq(&before, &memo_of(&obj, "ids")));
        assert_eq!(call(&mut obj, "n", &[]), "1");
        // rover::del, then a Rust-side remove of what a method set.
        call(&mut obj, "drop", &[]);
        assert!(call(&mut obj, "n", &[]).contains("no such field"));
        call(&mut obj, "put", &[Value::str("a b")]);
        assert!(obj.fields.remove("ids") && !obj.fields.remove("ids"));
        assert!(call(&mut obj, "n", &[]).contains("no such field"));
    }

    #[test]
    fn a_field_is_one_string_until_a_method_reads_it() {
        let mut obj = RoverObject::from_bytes(&index().to_bytes()).unwrap();
        obj.fields.insert("other".into(), "x y");
        call(&mut obj, "n", &[]);
        assert!(matches!(obj.fields.0.get("ids"), Some(Value::Memo(_))));
        assert!(matches!(obj.fields.0.get("other"), Some(Value::Str(_))));
    }

    #[test]
    fn a_clone_shares_fields_until_it_writes_them() {
        let mut obj = index();
        assert_eq!(call(&mut obj, "n", &[]), "3");
        let mut scratch = obj.clone();
        assert!(Rc::ptr_eq(&memo_of(&obj, "ids"), &memo_of(&scratch, "ids")));
        call(&mut scratch, "put", &[Value::str("only")]);
        assert_eq!(call(&mut scratch, "n", &[]), "1");
        assert_eq!(obj.field("ids"), Some("a b c"));
        assert_eq!(call(&mut obj, "n", &[]), "3");
    }

    #[test]
    fn text_that_is_not_a_list_says_so_every_time() {
        let mut obj = index().with_field("ids", "{a b");
        let first = call(&mut obj, "n", &[]);
        assert!(first.contains("unmatched open brace"), "{first}");
        assert_eq!(call(&mut obj, "n", &[]), first);
        assert_eq!(call(&mut obj, "raw", &[]), "{a b");
        assert_eq!(obj.field("ids"), Some("{a b"));
    }

    #[test]
    fn fields_read_as_text_from_rust() {
        let fields: Fields = [("b", "2"), ("a", "x y")]
            .into_iter()
            .map(|(k, v)| (k.to_owned(), v))
            .collect();
        assert_eq!(fields.get("a"), Some("x y"));
        assert!(fields.contains_key("b") && !fields.contains_key("c"));
        assert_eq!(fields.keys().collect::<Vec<_>>(), ["a", "b"]);
        let pairs: Vec<_> = fields.iter().map(|(k, v)| (k.as_str(), v)).collect();
        assert_eq!(pairs, [("a", "x y"), ("b", "2")]);
        assert_eq!((fields.len(), fields.is_empty()), (2, false));
        assert_eq!(format!("{fields:?}"), r#"{"a": "x y", "b": "2"}"#);
        // Equality is on text: how a field came to hold it is not seen.
        let mut other = Fields::new();
        other.insert(
            "a".into(),
            Value::list(vec![Value::str("x"), Value::str("y")]),
        );
        other.insert("b".into(), Value::Int(2));
        assert_eq!(fields, other);
    }

    #[test]
    fn host_commands_cover_fields() {
        let mut obj = RoverObject::new(Urn::parse("urn:rover:t/h").unwrap(), "t").with_code(
            "proc probe {} {
                    rover::set a 1
                    rover::set ab 2
                    rover::set b 3
                    rover::del b
                    list [rover::has a] [rover::has b] [rover::keys a*] [rover::urn]
                }",
        );
        let run = obj.run_method("probe", &[], Budget::default()).unwrap();
        assert_eq!(run.result.as_str(), "1 0 {a ab} urn:rover:t/h");
    }

    #[test]
    fn mutating_code_invalidates_cached_interp() {
        let mut obj = counter();
        let r1 = obj.run_method("get", &[], Budget::default()).unwrap();
        assert_eq!(r1.result, Value::Int(10));
        // Mutate the code blob in place: the warm cache entry must not
        // serve the old proc table.
        obj.code = "proc get {} {return new-code}".to_owned();
        let r2 = obj.run_method("get", &[], Budget::default()).unwrap();
        assert_eq!(r2.result.as_str(), "new-code");
        // A changed budget also misses (budgets are part of identity).
        let r3 = obj
            .run_method(
                "get",
                &[],
                Budget {
                    max_steps: 9_000,
                    max_depth: 8,
                },
            )
            .unwrap();
        assert_eq!(r3.result.as_str(), "new-code");
    }

    #[test]
    fn cached_and_fresh_loads_agree_on_steps_and_results() {
        let mut warm = counter();
        let mut cold = counter();
        let w1 = warm
            .run_method("add", &[Value::Int(1)], Budget::default())
            .unwrap();
        let w2 = warm
            .run_method("add", &[Value::Int(1)], Budget::default())
            .unwrap(); // cache hit
        cold.run_method("add", &[Value::Int(1)], Budget::default())
            .unwrap();
        *cold.cache.0.borrow_mut() = None;
        let c2 = cold
            .run_method("add", &[Value::Int(1)], Budget::default())
            .unwrap(); // forced fresh load
        assert_eq!(w1.steps, w2.steps);
        assert_eq!(w2.steps, c2.steps);
        assert_eq!(w2.result, c2.result);
        assert_eq!(warm.field("n"), cold.field("n"));
    }

    #[test]
    fn clones_share_cache_warmth() {
        let mut obj = counter();
        let mut scratch = obj.clone();
        scratch.run_method("get", &[], Budget::default()).unwrap();
        // Warming the scratch clone warmed the original's cell.
        assert!(obj.cache.0.borrow().is_some());
        let run = obj.run_method("get", &[], Budget::default()).unwrap();
        assert_eq!(run.result, Value::Int(10));
    }

    #[test]
    fn impure_loads_are_not_cached() {
        // Top-level code that *reads* a field must re-run per invoke:
        // caching it would replay a stale read.
        let mut obj = RoverObject::new(Urn::parse("urn:rover:t/impure").unwrap(), "t")
            .with_code("proc snap {} {global loaded; return $loaded}\nset x [rover::get n 0]\nglobal loaded\nset loaded [rover::get n 0]")
            .with_field("n", "1");
        let r1 = obj.run_method("snap", &[], Budget::default()).unwrap();
        assert_eq!(r1.result.as_str(), "1");
        assert!(obj.cache.0.borrow().is_none());
        obj.fields.insert("n".into(), "2");
        let r2 = obj.run_method("snap", &[], Budget::default()).unwrap();
        assert_eq!(r2.result.as_str(), "2");
    }

    #[test]
    fn wire_roundtrip() {
        let obj = counter();
        let bytes = obj.to_bytes();
        let back = RoverObject::from_bytes(&bytes).unwrap();
        assert_eq!(back, obj);
    }

    #[test]
    fn size_accounts_fields_and_code() {
        let small = RoverObject::new(Urn::parse("urn:rover:t/s").unwrap(), "t");
        let big = small.clone().with_field("body", &"x".repeat(10_000));
        assert!(big.size_bytes() > small.size_bytes() + 10_000);
    }

    #[test]
    fn puts_output_is_captured() {
        let mut obj = RoverObject::new(Urn::parse("urn:rover:t/p").unwrap(), "t")
            .with_code("proc hello {} {puts side-channel; return ok}");
        let run = obj.run_method("hello", &[], Budget::default()).unwrap();
        assert_eq!(run.output, "side-channel\n");
        assert_eq!(run.result.as_str(), "ok");
    }
}
