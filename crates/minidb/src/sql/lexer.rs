//! SQL tokenizer.

use crate::error::{DbError, DbResult};
use crate::value::Value;

/// A lexed token.
#[derive(Debug, Clone, PartialEq)]
pub enum Token {
    /// Keyword or identifier (keywords are matched case-insensitively by
    /// the parser; the original spelling is preserved here).
    Ident(String),
    /// Integer literal.
    Int(i64),
    /// Float literal.
    Float(f64),
    /// Single-quoted string literal. Strings shaped like times or dates
    /// are promoted to typed values by `promote_literal`.
    Str(String),
    /// `(`
    LParen,
    /// `)`
    RParen,
    /// `,`
    Comma,
    /// `.`
    Dot,
    /// `*`
    Star,
    /// `=`
    Eq,
    /// `!=` or `<>`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `;`
    Semi,
    /// `?` — positional wire-protocol placeholder.
    Question,
}

/// Promote a string literal to a typed value when it is shaped like a time
/// (`HH:MM[:SS]`) or a date (`YYYY-MM-DD`); otherwise keep it a string.
pub fn promote_literal(s: &str) -> Value {
    if let Some(t) = Value::parse_time(s) {
        if s.len() >= 4 && s.contains(':') {
            return Value::Time(t);
        }
    }
    if let Some(d) = Value::parse_date(s) {
        if s.len() == 10 {
            return Value::Date(d);
        }
    }
    Value::str(s)
}

/// Tokenize SQL text.
pub fn tokenize(input: &str) -> DbResult<Vec<Token>> {
    let mut out = Vec::new();
    let bytes = input.as_bytes();
    let mut i = 0;
    while i < bytes.len() {
        let c = bytes[i] as char;
        match c {
            ' ' | '\t' | '\n' | '\r' => i += 1,
            '(' => {
                out.push(Token::LParen);
                i += 1;
            }
            ')' => {
                out.push(Token::RParen);
                i += 1;
            }
            ',' => {
                out.push(Token::Comma);
                i += 1;
            }
            '.' => {
                out.push(Token::Dot);
                i += 1;
            }
            '*' => {
                out.push(Token::Star);
                i += 1;
            }
            ';' => {
                out.push(Token::Semi);
                i += 1;
            }
            '?' => {
                out.push(Token::Question);
                i += 1;
            }
            '=' => {
                out.push(Token::Eq);
                i += 1;
            }
            '!' => {
                if bytes.get(i + 1) == Some(&b'=') {
                    out.push(Token::Ne);
                    i += 2;
                } else {
                    return Err(DbError::Parse(format!("unexpected '!' at byte {i}")));
                }
            }
            '<' => match bytes.get(i + 1) {
                Some(b'=') => {
                    out.push(Token::Le);
                    i += 2;
                }
                Some(b'>') => {
                    out.push(Token::Ne);
                    i += 2;
                }
                _ => {
                    out.push(Token::Lt);
                    i += 1;
                }
            },
            '>' => {
                if bytes.get(i + 1) == Some(&b'=') {
                    out.push(Token::Ge);
                    i += 2;
                } else {
                    out.push(Token::Gt);
                    i += 1;
                }
            }
            '\'' => {
                // String literal with '' as the escape for a quote.
                let mut s = String::new();
                i += 1;
                loop {
                    match bytes.get(i) {
                        None => return Err(DbError::Parse("unterminated string".into())),
                        Some(b'\'') => {
                            if bytes.get(i + 1) == Some(&b'\'') {
                                s.push('\'');
                                i += 2;
                            } else {
                                i += 1;
                                break;
                            }
                        }
                        Some(&b) => {
                            s.push(b as char);
                            i += 1;
                        }
                    }
                }
                out.push(Token::Str(s));
            }
            '0'..='9' | '-' => {
                // A '-' is only a numeric sign here (the subset has no
                // arithmetic), so `-5` lexes as a negative literal.
                let start = i;
                if c == '-' {
                    if !bytes
                        .get(i + 1)
                        .map(|b| b.is_ascii_digit())
                        .unwrap_or(false)
                    {
                        return Err(DbError::Parse(format!("unexpected '-' at byte {i}")));
                    }
                    i += 1;
                }
                let mut is_float = false;
                while i < bytes.len() {
                    let b = bytes[i];
                    if b.is_ascii_digit() {
                        i += 1;
                    } else if b == b'.'
                        && !is_float
                        && bytes
                            .get(i + 1)
                            .map(|n| n.is_ascii_digit())
                            .unwrap_or(false)
                    {
                        is_float = true;
                        i += 1;
                    } else {
                        break;
                    }
                }
                // Exponent suffix (`1e300`, `2.5E-7`): Double's renderer
                // emits this form for large magnitudes, so the lexer must
                // take it back.
                if matches!(bytes.get(i), Some(b'e') | Some(b'E')) {
                    let mut j = i + 1;
                    if matches!(bytes.get(j), Some(b'+') | Some(b'-')) {
                        j += 1;
                    }
                    if bytes.get(j).map(|b| b.is_ascii_digit()).unwrap_or(false) {
                        is_float = true;
                        i = j;
                        while i < bytes.len() && bytes[i].is_ascii_digit() {
                            i += 1;
                        }
                    }
                }
                let text = &input[start..i];
                if is_float {
                    out.push(Token::Float(text.parse().map_err(|_| {
                        DbError::Parse(format!("bad float literal {text}"))
                    })?));
                } else {
                    out.push(Token::Int(text.parse().map_err(|_| {
                        DbError::Parse(format!("bad int literal {text}"))
                    })?));
                }
            }
            c if c.is_ascii_alphabetic() || c == '_' => {
                let start = i;
                while i < bytes.len()
                    && ((bytes[i] as char).is_ascii_alphanumeric() || bytes[i] == b'_')
                {
                    i += 1;
                }
                out.push(Token::Ident(input[start..i].to_string()));
            }
            other => {
                return Err(DbError::Parse(format!(
                    "unexpected character {other:?} at byte {i}"
                )))
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lexes_symbols_and_idents() {
        let toks = tokenize("SELECT * FROM w WHERE a >= 10 AND b != 'x''y'").unwrap();
        assert_eq!(toks[0], Token::Ident("SELECT".into()));
        assert_eq!(toks[1], Token::Star);
        assert!(toks.contains(&Token::Ge));
        assert!(toks.contains(&Token::Ne));
        assert!(toks.contains(&Token::Str("x'y".into())));
    }

    #[test]
    fn lexes_numbers() {
        let toks = tokenize("1 2.5 -3 -4.25").unwrap();
        assert_eq!(
            toks,
            vec![
                Token::Int(1),
                Token::Float(2.5),
                Token::Int(-3),
                Token::Float(-4.25)
            ]
        );
    }

    #[test]
    fn lexes_exponent_floats() {
        let toks = tokenize("1e3 2.5E-7 -1.5e+2 7e9x").unwrap();
        assert_eq!(toks[0], Token::Float(1e3));
        assert_eq!(toks[1], Token::Float(2.5e-7));
        assert_eq!(toks[2], Token::Float(-1.5e2));
        // A trailing identifier character ends the number cleanly.
        assert_eq!(toks[3], Token::Float(7e9));
        assert_eq!(toks[4], Token::Ident("x".into()));
        // `e` with no digits after it is an identifier, not an exponent.
        assert_eq!(
            tokenize("3e").unwrap(),
            vec![Token::Int(3), Token::Ident("e".into())]
        );
    }

    #[test]
    fn lexes_placeholders() {
        let toks = tokenize("a = ? AND b IN (?, ?)").unwrap();
        assert_eq!(toks.iter().filter(|t| **t == Token::Question).count(), 3);
    }

    #[test]
    fn ne_two_spellings() {
        assert_eq!(tokenize("<>").unwrap(), vec![Token::Ne]);
        assert_eq!(tokenize("!=").unwrap(), vec![Token::Ne]);
    }

    #[test]
    fn unterminated_string_errors() {
        assert!(matches!(tokenize("'abc"), Err(DbError::Parse(_))));
    }

    #[test]
    fn promote_time_date() {
        assert_eq!(promote_literal("09:30"), Value::Time(9 * 3600 + 1800));
        assert_eq!(
            promote_literal("2019-09-25"),
            Value::Date(Value::parse_date("2019-09-25").unwrap())
        );
        assert_eq!(promote_literal("hello"), Value::str("hello"));
        // A 4-digit-ish string that isn't a real date stays a string.
        assert_eq!(promote_literal("25:99"), Value::str("25:99"));
    }
}
