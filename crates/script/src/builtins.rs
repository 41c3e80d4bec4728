//! List, string, array, and formatting builtins.

use crate::error::Exc;
use crate::interp::Interp;
use crate::value::Value;

/// A command implemented in Rust.
pub(crate) type Builtin = fn(&mut Interp, &[Value]) -> Result<Value, Exc>;

/// Resolves a builtin by name — at compile time for literal command
/// names, so the hot path never compares strings. Builtins shadow procs
/// and host commands. The commands that take scripts or expressions
/// (`if`, `while`, `for`, `foreach`, `switch`, `catch`, `eval`, `expr`)
/// are not here: the compiler lowers those to jumps.
pub(crate) fn lookup(name: &str) -> Option<Builtin> {
    Some(match name {
        "set" => Interp::cmd_set,
        "unset" => Interp::cmd_unset,
        "incr" => Interp::cmd_incr,
        "append" => Interp::cmd_append,
        "proc" => Interp::cmd_proc,
        "return" => |_, a| Err(Exc::Return(a.first().cloned().unwrap_or_else(Value::empty))),
        "break" => |_, _| Err(Exc::Break),
        "continue" => |_, _| Err(Exc::Continue),
        "error" => |_, a| {
            Err(Exc::err(
                a.first()
                    .map(|v| v.as_str().into_owned())
                    .unwrap_or_default(),
            ))
        },
        "puts" => Interp::cmd_puts,
        "global" => Interp::cmd_global,
        "upvar" => Interp::cmd_upvar,
        "info" => Interp::cmd_info,
        "list" => |_, a| Ok(Value::list(a.to_vec())),
        "lindex" => |_, a| lindex(a),
        "llength" => |_, a| llength(a),
        "lappend" => lappend,
        "lrange" => |_, a| lrange(a),
        "linsert" => |_, a| linsert(a),
        "lsearch" => |_, a| lsearch(a),
        "lreplace" => |_, a| lreplace(a),
        "lassign" => lassign,
        "lsort" => |_, a| lsort(a),
        "lreverse" => |_, a| lreverse(a),
        "concat" => |_, a| concat(a),
        "join" => |_, a| join(a),
        "split" => |_, a| split(a),
        "string" => |_, a| string_cmd(a),
        "format" => |_, a| format_cmd(a),
        "array" => array_cmd,
        _ => return None,
    })
}

fn arity(args: &[Value], n: usize, usage: &str) -> Result<(), Exc> {
    if args.len() == n {
        Ok(())
    } else {
        Err(Exc::err(format!("wrong # args: should be \"{usage}\"")))
    }
}

fn lindex(args: &[Value]) -> Result<Value, Exc> {
    arity(args, 2, "lindex list index")?;
    let items = args[0].list_view()?;
    let idx = index_of(&args[1], items.len())?;
    Ok(items.get(idx).cloned().unwrap_or_else(Value::empty))
}

/// Resolves an index that may be `end` or `end-K`.
fn index_of(v: &Value, len: usize) -> Result<usize, Exc> {
    if let Value::Int(i) = v {
        return Ok((*i).max(0) as usize);
    }
    let s = v.as_str();
    if let Some(rest) = s.strip_prefix("end") {
        let back: i64 = if rest.is_empty() {
            0
        } else {
            rest.parse::<i64>()
                .map_err(|_| Exc::err(format!("bad index \"{s}\"")))?
        };
        let i = (len as i64 - 1).wrapping_add(back);
        return Ok(i.max(0) as usize);
    }
    let i = v.as_int()?;
    Ok(i.max(0) as usize)
}

fn llength(args: &[Value]) -> Result<Value, Exc> {
    arity(args, 1, "llength list")?;
    Ok(Value::Int(args[0].list_view()?.len() as i64))
}

fn lappend(interp: &mut Interp, args: &[Value]) -> Result<Value, Exc> {
    let name = args
        .first()
        .ok_or_else(|| Exc::err("wrong # args: lappend varName ?value ...?"))?;
    // In place: a uniquely held list grows without being copied.
    interp.var_modify(&name.as_str(), Value::list(Vec::new()), |v| {
        v.list_mut()?.extend_from_slice(&args[1..]);
        Ok(())
    })
}

fn lrange(args: &[Value]) -> Result<Value, Exc> {
    arity(args, 3, "lrange list first last")?;
    let items = args[0].list_view()?;
    let first = index_of(&args[1], items.len())?;
    let last = index_of(&args[2], items.len())?;
    if first >= items.len() || last < first {
        return Ok(Value::list(Vec::new()));
    }
    let last = last.min(items.len() - 1);
    Ok(Value::list(items[first..=last].to_vec()))
}

fn linsert(args: &[Value]) -> Result<Value, Exc> {
    if args.len() < 2 {
        return Err(Exc::err(
            "wrong # args: should be \"linsert list index element ...\"",
        ));
    }
    let mut items = args[0].as_list()?;
    let idx = index_of(&args[1], items.len() + 1)?.min(items.len());
    for (k, v) in args[2..].iter().enumerate() {
        items.insert(idx + k, v.clone());
    }
    Ok(Value::list(items))
}

fn lsearch(args: &[Value]) -> Result<Value, Exc> {
    arity(args, 2, "lsearch list pattern")?;
    let items = args[0].list_view()?;
    let pat = args[1].as_str();
    for (i, it) in items.iter().enumerate() {
        if glob_match(&pat, &it.as_str()) {
            return Ok(Value::Int(i as i64));
        }
    }
    Ok(Value::Int(-1))
}

fn lreplace(args: &[Value]) -> Result<Value, Exc> {
    if args.len() < 3 {
        return Err(Exc::err(
            "wrong # args: should be \"lreplace list first last ?element ...?\"",
        ));
    }
    let items = args[0].list_view()?;
    let first = index_of(&args[1], items.len())?;
    let last = index_of(&args[2], items.len())?;
    let mut out = Vec::new();
    out.extend_from_slice(&items[..first.min(items.len())]);
    out.extend(args[3..].iter().cloned());
    if last + 1 < items.len() {
        out.extend_from_slice(&items[last + 1..]);
    }
    Ok(Value::list(out))
}

fn lassign(interp: &mut Interp, args: &[Value]) -> Result<Value, Exc> {
    if args.len() < 2 {
        return Err(Exc::err(
            "wrong # args: should be \"lassign list varName ?varName ...?\"",
        ));
    }
    let items = args[0].list_view()?;
    for (i, name) in args[1..].iter().enumerate() {
        let v = items.get(i).cloned().unwrap_or_else(Value::empty);
        let spec = name.as_str();
        let (n, idx) = Interp::split_varname(&spec);
        interp.var_set(n, idx, v)?;
    }
    let rest = if items.len() > args.len() - 1 {
        items[args.len() - 1..].to_vec()
    } else {
        Vec::new()
    };
    Ok(Value::list(rest))
}

fn lsort(args: &[Value]) -> Result<Value, Exc> {
    // lsort ?-integer? ?-decreasing? list
    let mut integer = false;
    let mut decreasing = false;
    let mut list = None;
    for a in args {
        match a.as_str().as_ref() {
            "-integer" => integer = true,
            "-decreasing" => decreasing = true,
            "-increasing" => decreasing = false,
            _ => list = Some(a),
        }
    }
    let list = list.ok_or_else(|| Exc::err("wrong # args: lsort ?options? list"))?;
    let mut items = list.as_list()?;
    if integer {
        let mut keyed: Vec<(i64, Value)> = Vec::with_capacity(items.len());
        for it in items {
            keyed.push((it.as_int()?, it));
        }
        keyed.sort_by_key(|(k, _)| *k);
        items = keyed.into_iter().map(|(_, v)| v).collect();
    } else {
        items.sort_by(|a, b| a.as_str().cmp(&b.as_str()));
    }
    if decreasing {
        items.reverse();
    }
    Ok(Value::list(items))
}

fn lreverse(args: &[Value]) -> Result<Value, Exc> {
    arity(args, 1, "lreverse list")?;
    let mut items = args[0].as_list()?;
    items.reverse();
    Ok(Value::list(items))
}

fn concat(args: &[Value]) -> Result<Value, Exc> {
    let mut out = Vec::new();
    for a in args {
        out.extend_from_slice(&a.list_view()?);
    }
    Ok(Value::list(out))
}

fn join(args: &[Value]) -> Result<Value, Exc> {
    let list = args
        .first()
        .ok_or_else(|| Exc::err("wrong # args: join list ?sep?"))?;
    let sep = args
        .get(1)
        .map(|v| v.as_str())
        .unwrap_or_else(|| " ".into());
    let mut out = String::new();
    for (i, item) in list.list_view()?.iter().enumerate() {
        if i > 0 {
            out.push_str(&sep);
        }
        item.write_to(&mut out);
    }
    Ok(Value::from(out))
}

fn split(args: &[Value]) -> Result<Value, Exc> {
    let s = args
        .first()
        .ok_or_else(|| Exc::err("wrong # args: split string ?chars?"))?
        .as_str();
    let seps = args
        .get(1)
        .map(|v| v.as_str())
        .unwrap_or_else(|| " \t\n".into());
    if seps.is_empty() {
        return Ok(Value::list(
            s.chars().map(|c| Value::from(c.to_string())).collect(),
        ));
    }
    let sepset: Vec<char> = seps.chars().collect();
    let mut out = Vec::new();
    let mut cur = String::new();
    for c in s.chars() {
        if sepset.contains(&c) {
            out.push(Value::from(std::mem::take(&mut cur)));
        } else {
            cur.push(c);
        }
    }
    out.push(Value::from(cur));
    Ok(Value::list(out))
}

fn string_cmd(args: &[Value]) -> Result<Value, Exc> {
    let sub = args
        .first()
        .ok_or_else(|| Exc::err("wrong # args: string subcommand ..."))?;
    match sub.as_str().as_ref() {
        "length" => {
            arity(&args[1..], 1, "string length string")?;
            Ok(Value::Int(args[1].as_str().chars().count() as i64))
        }
        "index" => {
            arity(&args[1..], 2, "string index string charIndex")?;
            let s = args[1].as_str();
            let chars: Vec<char> = s.chars().collect();
            let i = index_of(&args[2], chars.len())?;
            Ok(chars
                .get(i)
                .map(|c| Value::from(c.to_string()))
                .unwrap_or_else(Value::empty))
        }
        "range" => {
            arity(&args[1..], 3, "string range string first last")?;
            let chars: Vec<char> = args[1].as_str().chars().collect();
            let first = index_of(&args[2], chars.len())?;
            let last = index_of(&args[3], chars.len())?;
            if first >= chars.len() || last < first {
                return Ok(Value::empty());
            }
            let last = last.min(chars.len() - 1);
            Ok(Value::from(chars[first..=last].iter().collect::<String>()))
        }
        "tolower" => Ok(Value::from(req(args, 1)?.as_str().to_lowercase())),
        "toupper" => Ok(Value::from(req(args, 1)?.as_str().to_uppercase())),
        "trim" => Ok(Value::from(req(args, 1)?.as_str().trim().to_owned())),
        "trimleft" => Ok(Value::from(req(args, 1)?.as_str().trim_start().to_owned())),
        "trimright" => Ok(Value::from(req(args, 1)?.as_str().trim_end().to_owned())),
        "match" => {
            arity(&args[1..], 2, "string match pattern string")?;
            Ok(Value::bool(glob_match(
                &args[1].as_str(),
                &args[2].as_str(),
            )))
        }
        "compare" => {
            arity(&args[1..], 2, "string compare string1 string2")?;
            Ok(Value::Int(match args[1].as_str().cmp(&args[2].as_str()) {
                std::cmp::Ordering::Less => -1,
                std::cmp::Ordering::Equal => 0,
                std::cmp::Ordering::Greater => 1,
            }))
        }
        "first" => {
            arity(&args[1..], 2, "string first needle haystack")?;
            let hay = args[2].as_str();
            Ok(Value::Int(match hay.find(&*args[1].as_str()) {
                Some(byte) => hay[..byte].chars().count() as i64,
                None => -1,
            }))
        }
        "last" => {
            arity(&args[1..], 2, "string last needle haystack")?;
            let hay = args[2].as_str();
            Ok(Value::Int(match hay.rfind(&*args[1].as_str()) {
                Some(byte) => hay[..byte].chars().count() as i64,
                None => -1,
            }))
        }
        "replace" => {
            // string replace string first last ?newstring?
            if !(3..=4).contains(&(args.len() - 1)) {
                return Err(Exc::err(
                    "wrong # args: should be \"string replace string first last ?newstring?\"",
                ));
            }
            let chars: Vec<char> = args[1].as_str().chars().collect();
            let first = index_of(&args[2], chars.len())?;
            let last = index_of(&args[3], chars.len())?;
            if first >= chars.len() || last < first {
                return Ok(args[1].clone());
            }
            let mut out: String = chars[..first].iter().collect();
            if let Some(new) = args.get(4) {
                out.push_str(&new.as_str());
            }
            let tail_from = (last + 1).min(chars.len());
            out.extend(&chars[tail_from..]);
            Ok(Value::from(out))
        }
        "repeat" => {
            arity(&args[1..], 2, "string repeat string count")?;
            let n = args[2].as_int()?.max(0) as usize;
            Ok(Value::from(args[1].as_str().repeat(n)))
        }
        "map" => {
            // string map {from to ?from to ...?} string
            arity(&args[1..], 2, "string map mapping string")?;
            let mapping = args[1].list_view()?;
            if mapping.len() % 2 != 0 {
                return Err(Exc::err("char map list unbalanced"));
            }
            let pairs: Vec<(String, String)> = mapping
                .chunks(2)
                .map(|kv| (kv[0].as_str().into_owned(), kv[1].as_str().into_owned()))
                .collect();
            let src = args[2].as_str();
            let chars: Vec<char> = src.chars().collect();
            let mut out = String::new();
            let mut i = 0;
            'outer: while i < chars.len() {
                for (from, to) in &pairs {
                    if from.is_empty() {
                        continue;
                    }
                    let rest: String = chars[i..].iter().collect();
                    if rest.starts_with(from.as_str()) {
                        out.push_str(to);
                        i += from.chars().count();
                        continue 'outer;
                    }
                }
                out.push(chars[i]);
                i += 1;
            }
            Ok(Value::from(out))
        }
        other => Err(Exc::err(format!("unknown string subcommand \"{other}\""))),
    }
}

fn req(args: &[Value], i: usize) -> Result<&Value, Exc> {
    args.get(i).ok_or_else(|| Exc::err("wrong # args"))
}

/// Minimal `format`: `%s %d %x %f %%` with optional `-`, width and
/// `.precision` (for `%f`).
fn format_cmd(args: &[Value]) -> Result<Value, Exc> {
    let fmt = args
        .first()
        .ok_or_else(|| Exc::err("wrong # args: format formatString ?arg ...?"))?;
    let fmt = fmt.as_str();
    let mut out = String::new();
    let mut argi = 1usize;
    let mut chars = fmt.chars().peekable();
    while let Some(c) = chars.next() {
        if c != '%' {
            out.push(c);
            continue;
        }
        let mut left = false;
        let mut width = String::new();
        let mut prec: Option<usize> = None;
        if chars.peek() == Some(&'%') {
            chars.next();
            out.push('%');
            continue;
        }
        if chars.peek() == Some(&'-') {
            left = true;
            chars.next();
        }
        while chars.peek().is_some_and(|c| c.is_ascii_digit()) {
            width.push(chars.next().expect("peeked"));
        }
        if chars.peek() == Some(&'.') {
            chars.next();
            let mut p = String::new();
            while chars.peek().is_some_and(|c| c.is_ascii_digit()) {
                p.push(chars.next().expect("peeked"));
            }
            prec = Some(p.parse().unwrap_or(0));
        }
        let conv = chars
            .next()
            .ok_or_else(|| Exc::err("format string ended mid-conversion"))?;
        let arg = args
            .get(argi)
            .ok_or_else(|| Exc::err("not enough arguments for format string"))?;
        argi += 1;
        let rendered = match conv {
            's' => arg.as_str().into_owned(),
            'd' => arg.as_int()?.to_string(),
            'x' => format!("{:x}", arg.as_int()?),
            'f' => {
                let p = prec.unwrap_or(6);
                format!("{:.*}", p, arg.as_double()?)
            }
            other => return Err(Exc::err(format!("bad format conversion \"%{other}\""))),
        };
        let w: usize = width.parse().unwrap_or(0);
        if rendered.len() >= w {
            out.push_str(&rendered);
        } else if left {
            out.push_str(&rendered);
            out.push_str(&" ".repeat(w - rendered.len()));
        } else {
            out.push_str(&" ".repeat(w - rendered.len()));
            out.push_str(&rendered);
        }
    }
    Ok(Value::from(out))
}

fn array_cmd(interp: &mut Interp, args: &[Value]) -> Result<Value, Exc> {
    let sub = args
        .first()
        .ok_or_else(|| Exc::err("wrong # args: array subcommand ..."))?;
    let name_cow = args
        .get(1)
        .ok_or_else(|| Exc::err("wrong # args: array subcommand arrayName"))?
        .as_str();
    let name: &str = &name_cow;
    let lookup = |interp: &Interp| -> Option<Vec<(String, Value)>> {
        let mut pairs: Vec<(String, Value)> = interp
            .local_array(name)?
            .iter()
            .map(|(k, v)| (k.clone(), v.clone()))
            .collect();
        pairs.sort_by(|x, y| x.0.cmp(&y.0));
        Some(pairs)
    };
    match sub.as_str().as_ref() {
        "exists" => Ok(Value::bool(lookup(interp).is_some())),
        "size" => Ok(Value::Int(
            lookup(interp).map(|p| p.len()).unwrap_or(0) as i64
        )),
        "names" => Ok(Value::list(
            lookup(interp)
                .unwrap_or_default()
                .into_iter()
                .map(|(k, _)| Value::from(k))
                .collect(),
        )),
        "get" => {
            let mut out = Vec::new();
            for (k, v) in lookup(interp).unwrap_or_default() {
                out.push(Value::from(k));
                out.push(v);
            }
            Ok(Value::list(out))
        }
        "set" => {
            let pairs = args
                .get(2)
                .ok_or_else(|| Exc::err("wrong # args: array set arrayName list"))?
                .as_list()?;
            if pairs.len() % 2 != 0 {
                return Err(Exc::err("list must have an even number of elements"));
            }
            for kv in pairs.chunks(2) {
                interp.var_set(name, Some(&kv[0].as_str()), kv[1].clone())?;
            }
            Ok(Value::empty())
        }
        "unset" => {
            interp.var_unset(name, None).ok();
            Ok(Value::empty())
        }
        other => Err(Exc::err(format!("unknown array subcommand \"{other}\""))),
    }
}

/// Tcl-style glob matching: `*`, `?`, and `[chars]` / `[a-z]` sets.
///
/// Iterative, with one backtrack point (the last `*` and the text
/// position it was last tried at), so a match costs at most
/// |pattern|·|text| comparisons: `string match` charges one step
/// whatever its arguments, and must not be a way around the budget.
pub(crate) fn glob_match(pat: &str, s: &str) -> bool {
    if pat.is_ascii() && s.is_ascii() {
        return glob(pat.as_bytes(), s.as_bytes());
    }
    let (p, t): (Vec<char>, Vec<char>) = (pat.chars().collect(), s.chars().collect());
    glob(&p, &t)
}

fn glob<C: Copy + PartialOrd + From<u8>>(p: &[C], t: &[C]) -> bool {
    let is = |c: C, b: u8| c == C::from(b);
    let (mut pi, mut ti) = (0, 0);
    // Pattern index after the last `*`, and where in the text it resumes.
    let mut star: Option<(usize, usize)> = None;
    loop {
        // What the pattern element at `pi` takes: `None` if it does not
        // match here, else the pattern index after it.
        let next = match (p.get(pi), t.get(ti)) {
            (Some(&c), _) if is(c, b'*') => {
                star = Some((pi + 1, ti));
                pi += 1;
                continue;
            }
            (None, None) => return true,
            (None, Some(_)) | (Some(_), None) => None,
            (Some(&c), Some(_)) if is(c, b'?') => Some(pi + 1),
            (Some(&c), Some(&x)) if is(c, b'[') => {
                let mut j = pi + 1;
                let mut matched = false;
                while let Some(&lo) = p.get(j).filter(|&&c| !is(c, b']')) {
                    match (p.get(j + 1), p.get(j + 2)) {
                        (Some(&dash), Some(&hi)) if is(dash, b'-') && !is(hi, b']') => {
                            matched |= (lo..=hi).contains(&x);
                            j += 3;
                        }
                        _ => {
                            matched |= lo == x;
                            j += 1;
                        }
                    }
                }
                // An unterminated set matches nothing.
                (matched && j < p.len()).then_some(j + 1)
            }
            (Some(&c), Some(&x)) => match p.get(pi + 1) {
                Some(&lit) if is(c, b'\\') => (lit == x).then_some(pi + 2),
                _ => (c == x).then_some(pi + 1),
            },
        };
        match (next, star) {
            (Some(after), _) => (pi, ti) = (after, ti + 1),
            // Let the last `*` swallow one more character and retry.
            (None, Some((after, at))) if at < t.len() => {
                star = Some((after, at + 1));
                (pi, ti) = (after, at + 1);
            }
            _ => return false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::glob_match;
    use proptest::prelude::*;

    /// The matcher `glob_match` replaced, kept as the reference: it
    /// retries every suffix at each `*`, recursively.
    fn glob_recursive(pat: &str, s: &str) -> bool {
        let p: Vec<char> = pat.chars().collect();
        let t: Vec<char> = s.chars().collect();
        glob_at(&p, 0, &t, 0)
    }

    fn glob_at(p: &[char], mut pi: usize, t: &[char], mut ti: usize) -> bool {
        while pi < p.len() {
            match p[pi] {
                '*' => {
                    // Collapse consecutive stars, then try all suffixes.
                    while pi < p.len() && p[pi] == '*' {
                        pi += 1;
                    }
                    if pi == p.len() {
                        return true;
                    }
                    for k in ti..=t.len() {
                        if glob_at(p, pi, t, k) {
                            return true;
                        }
                    }
                    return false;
                }
                '?' => {
                    if ti >= t.len() {
                        return false;
                    }
                    pi += 1;
                    ti += 1;
                }
                '[' => {
                    if ti >= t.len() {
                        return false;
                    }
                    let mut j = pi + 1;
                    let mut matched = false;
                    while j < p.len() && p[j] != ']' {
                        if j + 2 < p.len() && p[j + 1] == '-' && p[j + 2] != ']' {
                            if (p[j]..=p[j + 2]).contains(&t[ti]) {
                                matched = true;
                            }
                            j += 3;
                        } else {
                            if p[j] == t[ti] {
                                matched = true;
                            }
                            j += 1;
                        }
                    }
                    if j >= p.len() || !matched {
                        return false;
                    }
                    pi = j + 1;
                    ti += 1;
                }
                '\\' if pi + 1 < p.len() => {
                    if ti >= t.len() || t[ti] != p[pi + 1] {
                        return false;
                    }
                    pi += 2;
                    ti += 1;
                }
                c => {
                    if ti >= t.len() || t[ti] != c {
                        return false;
                    }
                    pi += 1;
                    ti += 1;
                }
            }
        }
        ti == t.len()
    }

    /// Strings of up to 12 of the glob metacharacters and two letters
    /// (and, now and then, a multi-byte letter: the `char` path).
    fn glob_text() -> impl Strategy<Value = String> {
        const ALPHABET: [char; 9] = ['a', 'b', '*', '?', '[', ']', '-', '\\', 'é'];
        proptest::collection::vec(0..ALPHABET.len(), 0..=12)
            .prop_map(|ix| ix.into_iter().map(|i| ALPHABET[i]).collect())
    }

    proptest! {
        #[test]
        fn glob_differential(pat in glob_text(), text in glob_text()) {
            prop_assert_eq!(
                glob_match(&pat, &text),
                glob_recursive(&pat, &text),
                "pattern {:?} text {:?}", pat, text
            );
        }
    }

    #[test]
    fn glob_basics() {
        assert!(glob_match("*", ""));
        assert!(glob_match("*", "anything"));
        assert!(glob_match("a*c", "abc"));
        assert!(glob_match("a*c", "ac"));
        assert!(!glob_match("a*c", "abd"));
        assert!(glob_match("?at", "cat"));
        assert!(!glob_match("?at", "at"));
    }

    #[test]
    fn glob_char_sets() {
        assert!(glob_match("[abc]x", "bx"));
        assert!(!glob_match("[abc]x", "dx"));
        assert!(glob_match("[a-f]9", "c9"));
        assert!(!glob_match("[a-f]9", "g9"));
    }

    #[test]
    fn glob_escapes() {
        assert!(glob_match(r"a\*b", "a*b"));
        assert!(!glob_match(r"a\*b", "axb"));
    }

    #[test]
    fn glob_multiple_stars() {
        assert!(glob_match("*.rover.*", "mail.rover.inbox"));
        assert!(glob_match("**x**", "zzxzz"));
    }
}
