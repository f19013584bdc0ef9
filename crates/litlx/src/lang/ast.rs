//! Abstract syntax of LITL-X.

use std::collections::BTreeMap;
use std::sync::Arc;

/// A structured-hint pragma: `@name(key = value, …)`.
///
/// Hints are *data*, carried through compilation to the adaptive runtime
/// (§4.1). Values are strings or numbers; the `htvm-adapt` crate interprets
/// well-known keys (`schedule`, `chunk`, `level`, `locality`, …).
#[derive(Debug, Clone, PartialEq)]
pub struct Hint {
    /// Pragma name (`hint`, `ssp`, …).
    pub name: String,
    /// Key/value annotations.
    pub kv: BTreeMap<String, HintValue>,
}

/// A pragma value.
#[derive(Debug, Clone, PartialEq)]
pub enum HintValue {
    /// String value, e.g. `schedule = "guided"`.
    Str(String),
    /// Numeric value, e.g. `chunk = 8`.
    Num(f64),
}

impl Hint {
    /// Fetch a string-valued key.
    pub fn get_str(&self, key: &str) -> Option<&str> {
        match self.kv.get(key) {
            Some(HintValue::Str(s)) => Some(s),
            _ => None,
        }
    }

    /// Fetch a numeric key.
    pub fn get_num(&self, key: &str) -> Option<f64> {
        match self.kv.get(key) {
            Some(HintValue::Num(n)) => Some(*n),
            _ => None,
        }
    }
}

/// A bound name: a variable, parameter or loop index. Shared, so an
/// environment binds it without copying the text.
pub type Name = Arc<str>;

/// Binary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinOp {
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `/`
    Div,
    /// `%`
    Rem,
    /// `==`
    Eq,
    /// `!=`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `&&`
    And,
    /// `||`
    Or,
}

/// Expressions.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// Numeric literal.
    Num(f64),
    /// Variable reference.
    Var(Name),
    /// `a[i]`
    Index(Box<Expr>, Box<Expr>),
    /// Binary operation.
    Bin(BinOp, Box<Expr>, Box<Expr>),
    /// Unary negation `-e`.
    Neg(Box<Expr>),
    /// Logical not `!e`.
    Not(Box<Expr>),
    /// Function or builtin call.
    Call(String, Vec<Expr>),
}

/// Statements. Each statement may carry hint pragmas written directly
/// above it.
#[derive(Debug, Clone, PartialEq)]
pub enum Stmt {
    /// `let x = e;`
    Let(Name, Expr),
    /// `x = e;`
    Assign(Name, Expr),
    /// `a[i] = e;` / `a[i] += e;`
    StoreIndex {
        /// Array variable.
        array: Name,
        /// Index expression.
        index: Expr,
        /// Value expression.
        value: Expr,
        /// Whether this is `+=` (atomic accumulate) rather than `=`.
        accumulate: bool,
    },
    /// `if cond { … } else { … }`
    If(Expr, Vec<Stmt>, Vec<Stmt>),
    /// `while cond { … }`
    While(Expr, Vec<Stmt>),
    /// Sequential `for i in a..b { … }`.
    For(Name, Expr, Expr, Vec<Stmt>),
    /// Parallel `forall i in a..b { … }` with attached hints.
    Forall {
        /// Induction variable.
        var: Name,
        /// Range start.
        from: Expr,
        /// Range end (exclusive).
        to: Expr,
        /// Loop body.
        body: Vec<Stmt>,
        /// Pragmas attached to this loop.
        hints: Vec<Hint>,
    },
    /// `spawn { … }` — fire-and-forget SGT.
    Spawn(Vec<Stmt>),
    /// `future x = e;` — eager asynchronous evaluation.
    Future(Name, Expr),
    /// `atomic { … }` — atomic block of memory operations.
    Atomic(Vec<Stmt>),
    /// `return e;`
    Return(Option<Expr>),
    /// Bare expression statement.
    Expr(Expr),
}

/// A function definition.
#[derive(Debug, Clone, PartialEq)]
pub struct FnDef {
    /// Function name.
    pub name: String,
    /// Parameter names.
    pub params: Vec<Name>,
    /// Body.
    pub body: Vec<Stmt>,
    /// Pragmas attached to the function.
    pub hints: Vec<Hint>,
}

/// A parsed LITL-X program.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Program {
    /// All functions, `main` included.
    pub fns: Vec<Arc<FnDef>>,
}

impl Program {
    /// Find a function by name.
    pub fn get_fn(&self, name: &str) -> Option<&Arc<FnDef>> {
        self.fns.iter().find(|f| f.name == name)
    }

    /// Every hint pragma in the program, paired with the name of the
    /// enclosing function — the "structured hints" handed to the knowledge
    /// base (§4.1).
    pub fn hints(&self) -> Vec<(String, Hint)> {
        let mut out = Vec::new();
        for f in &self.fns {
            for h in &f.hints {
                out.push((f.name.clone(), h.clone()));
            }
            collect_stmt_hints(&f.body, &f.name, &mut out);
        }
        out
    }
}

fn collect_stmt_hints(stmts: &[Stmt], scope: &str, out: &mut Vec<(String, Hint)>) {
    for s in stmts {
        match s {
            Stmt::Forall { body, hints, .. } => {
                for h in hints {
                    out.push((scope.to_string(), h.clone()));
                }
                collect_stmt_hints(body, scope, out);
            }
            Stmt::If(_, a, b) => {
                collect_stmt_hints(a, scope, out);
                collect_stmt_hints(b, scope, out);
            }
            Stmt::While(_, b) | Stmt::For(_, _, _, b) | Stmt::Spawn(b) | Stmt::Atomic(b) => {
                collect_stmt_hints(b, scope, out);
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hint_accessors() {
        let mut kv = BTreeMap::new();
        kv.insert("schedule".to_string(), HintValue::Str("guided".into()));
        kv.insert("chunk".to_string(), HintValue::Num(8.0));
        let h = Hint {
            name: "hint".into(),
            kv,
        };
        assert_eq!(h.get_str("schedule"), Some("guided"));
        assert_eq!(h.get_num("chunk"), Some(8.0));
        assert_eq!(h.get_str("chunk"), None);
        assert_eq!(h.get_num("missing"), None);
    }

    #[test]
    fn program_hint_collection_recurses() {
        let hint = Hint {
            name: "hint".into(),
            kv: BTreeMap::new(),
        };
        let inner = Stmt::Forall {
            var: "i".into(),
            from: Expr::Num(0.0),
            to: Expr::Num(1.0),
            body: vec![],
            hints: vec![hint.clone()],
        };
        let f = FnDef {
            name: "main".into(),
            params: vec![],
            body: vec![Stmt::While(Expr::Num(1.0), vec![inner])],
            hints: vec![hint.clone()],
        };
        let p = Program {
            fns: vec![Arc::new(f)],
        };
        assert_eq!(p.hints().len(), 2);
        assert!(p.get_fn("main").is_some());
        assert!(p.get_fn("nope").is_none());
    }
}
