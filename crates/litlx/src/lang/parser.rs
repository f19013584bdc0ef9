//! Recursive-descent parser for LITL-X.

use std::collections::BTreeMap;
use std::sync::Arc;

use super::ast::{BinOp, Expr, FnDef, Hint, HintValue, Program, Stmt};
use super::lexer::{lex, Spanned, Token};

/// A parse failure with a line number and message.
#[derive(Debug, Clone, PartialEq)]
pub struct ParseError {
    /// 1-based source line.
    pub line: u32,
    /// Human-readable message.
    pub msg: String,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "parse error at line {}: {}", self.line, self.msg)
    }
}

impl std::error::Error for ParseError {}

/// Parse LITL-X source into a [`Program`].
pub fn parse(src: &str) -> Result<Program, ParseError> {
    let toks = lex(src).map_err(|msg| ParseError { line: 0, msg })?;
    let mut p = Parser { toks, pos: 0 };
    p.program()
}

struct Parser {
    toks: Vec<Spanned>,
    pos: usize,
}

impl Parser {
    fn peek(&self) -> &Token {
        &self.toks[self.pos].tok
    }

    fn line(&self) -> u32 {
        self.toks[self.pos].line
    }

    fn bump(&mut self) -> Token {
        let t = self.toks[self.pos].tok.clone();
        if self.pos + 1 < self.toks.len() {
            self.pos += 1;
        }
        t
    }

    fn err<T>(&self, msg: impl Into<String>) -> Result<T, ParseError> {
        Err(ParseError {
            line: self.line(),
            msg: msg.into(),
        })
    }

    fn eat_punct(&mut self, p: &str) -> Result<(), ParseError> {
        match self.peek() {
            Token::Punct(q) if *q == p => {
                self.bump();
                Ok(())
            }
            other => self.err(format!("expected `{p}`, found `{other}`")),
        }
    }

    fn is_punct(&self, p: &str) -> bool {
        matches!(self.peek(), Token::Punct(q) if *q == p)
    }

    fn is_kw(&self, kw: &str) -> bool {
        matches!(self.peek(), Token::Ident(s) if s == kw)
    }

    fn eat_kw(&mut self, kw: &str) -> Result<(), ParseError> {
        if self.is_kw(kw) {
            self.bump();
            Ok(())
        } else {
            self.err(format!("expected keyword `{kw}`, found `{}`", self.peek()))
        }
    }

    fn ident(&mut self) -> Result<String, ParseError> {
        match self.bump() {
            Token::Ident(s) => Ok(s),
            other => self.err(format!("expected identifier, found `{other}`")),
        }
    }

    fn program(&mut self) -> Result<Program, ParseError> {
        let mut fns = Vec::new();
        loop {
            if matches!(self.peek(), Token::Eof) {
                break;
            }
            let hints = self.pragmas()?;
            if self.is_kw("fn") {
                fns.push(Arc::new(self.fndef(hints)?));
            } else {
                return self.err(format!("expected `fn`, found `{}`", self.peek()));
            }
        }
        Ok(Program { fns })
    }

    fn pragmas(&mut self) -> Result<Vec<Hint>, ParseError> {
        let mut hints = Vec::new();
        while self.is_punct("@") {
            self.bump();
            let name = self.ident()?;
            let mut kv = BTreeMap::new();
            self.eat_punct("(")?;
            if !self.is_punct(")") {
                loop {
                    let key = self.ident()?;
                    // A bare key is a flag: `@hint(pipeline)` ≡
                    // `@hint(pipeline = 1)`.
                    let val = if self.is_punct("=") {
                        self.bump();
                        match self.bump() {
                            Token::Str(s) => HintValue::Str(s),
                            Token::Num(n) => HintValue::Num(n),
                            Token::Ident(s) => HintValue::Str(s),
                            other => return self.err(format!("bad pragma value `{other}`")),
                        }
                    } else {
                        HintValue::Num(1.0)
                    };
                    kv.insert(key, val);
                    if self.is_punct(",") {
                        self.bump();
                    } else {
                        break;
                    }
                }
            }
            self.eat_punct(")")?;
            hints.push(Hint { name, kv });
        }
        Ok(hints)
    }

    fn fndef(&mut self, hints: Vec<Hint>) -> Result<FnDef, ParseError> {
        self.eat_kw("fn")?;
        let name = self.ident()?;
        self.eat_punct("(")?;
        let mut params = Vec::new();
        if !self.is_punct(")") {
            loop {
                params.push(self.ident()?.into());
                if self.is_punct(",") {
                    self.bump();
                } else {
                    break;
                }
            }
        }
        self.eat_punct(")")?;
        let body = self.block()?;
        Ok(FnDef {
            name,
            params,
            body,
            hints,
        })
    }

    fn block(&mut self) -> Result<Vec<Stmt>, ParseError> {
        self.eat_punct("{")?;
        let mut stmts = Vec::new();
        while !self.is_punct("}") {
            if matches!(self.peek(), Token::Eof) {
                return self.err("unexpected end of input inside block");
            }
            stmts.push(self.stmt()?);
        }
        self.eat_punct("}")?;
        Ok(stmts)
    }

    fn stmt(&mut self) -> Result<Stmt, ParseError> {
        let hints = self.pragmas()?;
        if !hints.is_empty() {
            // Pragmas may only precede forall loops (the adaptive-schedule
            // target) — anything else is a user error worth reporting.
            if !self.is_kw("forall") {
                return self.err("pragma must precede a `forall` loop");
            }
            return self.forall(hints);
        }
        if self.is_kw("let") {
            self.bump();
            let name = self.ident()?;
            self.eat_punct("=")?;
            let e = self.expr()?;
            self.eat_punct(";")?;
            return Ok(Stmt::Let(name.into(), e));
        }
        if self.is_kw("if") {
            self.bump();
            let cond = self.expr()?;
            let then = self.block()?;
            let els = if self.is_kw("else") {
                self.bump();
                self.block()?
            } else {
                Vec::new()
            };
            return Ok(Stmt::If(cond, then, els));
        }
        if self.is_kw("while") {
            self.bump();
            let cond = self.expr()?;
            let body = self.block()?;
            return Ok(Stmt::While(cond, body));
        }
        if self.is_kw("for") {
            self.bump();
            let var = self.ident()?;
            self.eat_kw("in")?;
            let from = self.expr()?;
            self.eat_punct("..")?;
            let to = self.expr()?;
            let body = self.block()?;
            return Ok(Stmt::For(var.into(), from, to, body));
        }
        if self.is_kw("forall") {
            return self.forall(Vec::new());
        }
        if self.is_kw("spawn") {
            self.bump();
            let body = self.block()?;
            return Ok(Stmt::Spawn(body));
        }
        if self.is_kw("atomic") {
            self.bump();
            let body = self.block()?;
            return Ok(Stmt::Atomic(body));
        }
        if self.is_kw("future") {
            self.bump();
            let name = self.ident()?;
            self.eat_punct("=")?;
            let e = self.expr()?;
            self.eat_punct(";")?;
            return Ok(Stmt::Future(name.into(), e));
        }
        if self.is_kw("return") {
            self.bump();
            if self.is_punct(";") {
                self.bump();
                return Ok(Stmt::Return(None));
            }
            let e = self.expr()?;
            self.eat_punct(";")?;
            return Ok(Stmt::Return(Some(e)));
        }
        // Assignment / indexed store / expression statement.
        if let Token::Ident(name) = self.peek().clone() {
            // Lookahead for `name =`, `name[`.
            let next = &self.toks[(self.pos + 1).min(self.toks.len() - 1)].tok;
            if matches!(next, Token::Punct("=")) {
                self.bump();
                self.bump();
                let e = self.expr()?;
                self.eat_punct(";")?;
                return Ok(Stmt::Assign(name.into(), e));
            }
            if matches!(next, Token::Punct("[")) {
                // Could be a store `a[i] = e;` / `a[i] += e;` or an
                // expression like `a[i];` — parse the index, then decide.
                let save = self.pos;
                self.bump();
                self.bump();
                let idx = self.expr()?;
                self.eat_punct("]")?;
                if self.is_punct("=") {
                    self.bump();
                    let value = self.expr()?;
                    self.eat_punct(";")?;
                    return Ok(Stmt::StoreIndex {
                        array: name.as_str().into(),
                        index: idx,
                        value,
                        accumulate: false,
                    });
                }
                if self.is_punct("+=") {
                    self.bump();
                    let value = self.expr()?;
                    self.eat_punct(";")?;
                    return Ok(Stmt::StoreIndex {
                        array: name.as_str().into(),
                        index: idx,
                        value,
                        accumulate: true,
                    });
                }
                self.pos = save;
            }
        }
        let e = self.expr()?;
        self.eat_punct(";")?;
        Ok(Stmt::Expr(e))
    }

    fn forall(&mut self, hints: Vec<Hint>) -> Result<Stmt, ParseError> {
        self.eat_kw("forall")?;
        let var = self.ident()?;
        self.eat_kw("in")?;
        let from = self.expr()?;
        self.eat_punct("..")?;
        let to = self.expr()?;
        let body = self.block()?;
        Ok(Stmt::Forall {
            var: var.into(),
            from,
            to,
            body,
            hints,
        })
    }

    // Expression precedence: || < && < cmp < add < mul < unary < postfix.
    fn expr(&mut self) -> Result<Expr, ParseError> {
        self.or_expr()
    }

    fn or_expr(&mut self) -> Result<Expr, ParseError> {
        let mut lhs = self.and_expr()?;
        while self.is_punct("||") {
            self.bump();
            let rhs = self.and_expr()?;
            lhs = Expr::Bin(BinOp::Or, Box::new(lhs), Box::new(rhs));
        }
        Ok(lhs)
    }

    fn and_expr(&mut self) -> Result<Expr, ParseError> {
        let mut lhs = self.cmp_expr()?;
        while self.is_punct("&&") {
            self.bump();
            let rhs = self.cmp_expr()?;
            lhs = Expr::Bin(BinOp::And, Box::new(lhs), Box::new(rhs));
        }
        Ok(lhs)
    }

    fn cmp_expr(&mut self) -> Result<Expr, ParseError> {
        let lhs = self.add_expr()?;
        let op = match self.peek() {
            Token::Punct("==") => Some(BinOp::Eq),
            Token::Punct("!=") => Some(BinOp::Ne),
            Token::Punct("<") => Some(BinOp::Lt),
            Token::Punct("<=") => Some(BinOp::Le),
            Token::Punct(">") => Some(BinOp::Gt),
            Token::Punct(">=") => Some(BinOp::Ge),
            _ => None,
        };
        if let Some(op) = op {
            self.bump();
            let rhs = self.add_expr()?;
            Ok(Expr::Bin(op, Box::new(lhs), Box::new(rhs)))
        } else {
            Ok(lhs)
        }
    }

    fn add_expr(&mut self) -> Result<Expr, ParseError> {
        let mut lhs = self.mul_expr()?;
        loop {
            let op = match self.peek() {
                Token::Punct("+") => BinOp::Add,
                Token::Punct("-") => BinOp::Sub,
                _ => break,
            };
            self.bump();
            let rhs = self.mul_expr()?;
            lhs = Expr::Bin(op, Box::new(lhs), Box::new(rhs));
        }
        Ok(lhs)
    }

    fn mul_expr(&mut self) -> Result<Expr, ParseError> {
        let mut lhs = self.unary_expr()?;
        loop {
            let op = match self.peek() {
                Token::Punct("*") => BinOp::Mul,
                Token::Punct("/") => BinOp::Div,
                Token::Punct("%") => BinOp::Rem,
                _ => break,
            };
            self.bump();
            let rhs = self.unary_expr()?;
            lhs = Expr::Bin(op, Box::new(lhs), Box::new(rhs));
        }
        Ok(lhs)
    }

    fn unary_expr(&mut self) -> Result<Expr, ParseError> {
        if self.is_punct("-") {
            self.bump();
            return Ok(Expr::Neg(Box::new(self.unary_expr()?)));
        }
        if self.is_punct("!") {
            self.bump();
            return Ok(Expr::Not(Box::new(self.unary_expr()?)));
        }
        self.postfix_expr()
    }

    fn postfix_expr(&mut self) -> Result<Expr, ParseError> {
        let mut e = self.primary()?;
        loop {
            if self.is_punct("[") {
                self.bump();
                let idx = self.expr()?;
                self.eat_punct("]")?;
                e = Expr::Index(Box::new(e), Box::new(idx));
            } else {
                break;
            }
        }
        Ok(e)
    }

    fn primary(&mut self) -> Result<Expr, ParseError> {
        let line = self.line();
        match self.bump() {
            Token::Num(n) => Ok(Expr::Num(n)),
            Token::Ident(name) => {
                if self.is_punct("(") {
                    self.bump();
                    let mut args = Vec::new();
                    if !self.is_punct(")") {
                        loop {
                            args.push(self.expr()?);
                            if self.is_punct(",") {
                                self.bump();
                            } else {
                                break;
                            }
                        }
                    }
                    self.eat_punct(")")?;
                    Ok(Expr::Call(name, args))
                } else {
                    Ok(Expr::Var(name.into()))
                }
            }
            Token::Punct("(") => {
                let e = self.expr()?;
                self.eat_punct(")")?;
                Ok(e)
            }
            other => Err(ParseError {
                line,
                msg: format!("expected expression, found `{other}`"),
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_minimal_main() {
        let p = parse("fn main() { let x = 1 + 2 * 3; }").unwrap();
        assert_eq!(p.fns.len(), 1);
        let f = p.get_fn("main").unwrap();
        match &f.body[0] {
            Stmt::Let(name, Expr::Bin(BinOp::Add, _, rhs)) => {
                assert_eq!(&**name, "x");
                assert!(matches!(**rhs, Expr::Bin(BinOp::Mul, _, _)));
            }
            other => panic!("unexpected stmt {other:?}"),
        }
    }

    #[test]
    fn parses_forall_with_hint() {
        let src = r#"
            fn main() {
                let a = array(10);
                @hint(schedule = "guided", chunk = 4)
                forall i in 0..10 { a[i] = i; }
            }
        "#;
        let p = parse(src).unwrap();
        let hints = p.hints();
        assert_eq!(hints.len(), 1);
        assert_eq!(hints[0].1.get_str("schedule"), Some("guided"));
        assert_eq!(hints[0].1.get_num("chunk"), Some(4.0));
    }

    #[test]
    fn pragma_on_non_forall_is_rejected() {
        let src = "fn main() { @hint(x = 1) let y = 2; }";
        assert!(parse(src).is_err());
    }

    #[test]
    fn parses_control_flow() {
        let src = r#"
            fn f(n) {
                if n <= 1 { return 1; } else { return n * f(n - 1); }
            }
            fn main() { let x = f(5); }
        "#;
        let p = parse(src).unwrap();
        assert_eq!(p.fns.len(), 2);
        assert!(matches!(p.get_fn("f").unwrap().body[0], Stmt::If(..)));
    }

    #[test]
    fn parses_future_spawn_atomic() {
        let src = r#"
            fn main() {
                future x = 1 + 2;
                spawn { let y = 1; }
                atomic { let z = 2; }
                let v = force(x);
            }
        "#;
        let p = parse(src).unwrap();
        let body = &p.get_fn("main").unwrap().body;
        assert!(matches!(body[0], Stmt::Future(..)));
        assert!(matches!(body[1], Stmt::Spawn(..)));
        assert!(matches!(body[2], Stmt::Atomic(..)));
    }

    #[test]
    fn parses_indexed_accumulate() {
        let p = parse("fn main() { let a = array(4); a[0] += 2; }").unwrap();
        match &p.get_fn("main").unwrap().body[1] {
            Stmt::StoreIndex { accumulate, .. } => assert!(accumulate),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn precedence_and_parens() {
        let p = parse("fn main() { let x = (1 + 2) * 3; }").unwrap();
        match &p.get_fn("main").unwrap().body[0] {
            Stmt::Let(_, Expr::Bin(BinOp::Mul, lhs, _)) => {
                assert!(matches!(**lhs, Expr::Bin(BinOp::Add, _, _)));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn error_reports_line() {
        let err = parse("fn main() {\n let x = ;\n}").unwrap_err();
        assert_eq!(err.line, 2);
        assert!(err.to_string().contains("line 2"));
    }

    #[test]
    fn nested_indexing_parses() {
        let p = parse("fn main() { let a = array(4); let x = a[a[0]]; }").unwrap();
        match &p.get_fn("main").unwrap().body[1] {
            Stmt::Let(_, Expr::Index(arr, idx)) => {
                assert!(matches!(**arr, Expr::Var(_)));
                assert!(matches!(**idx, Expr::Index(..)));
            }
            other => panic!("unexpected {other:?}"),
        }
    }
}
