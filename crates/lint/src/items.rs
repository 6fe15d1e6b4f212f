//! Closure bodies, recovered from the flat token stream.
//!
//! This is deliberately *not* a Rust parser: it finds where a closure's
//! body starts and ends — all `rng-draw-site` needs to tell a draw
//! inside a fan-out worker from one beside it — and shrugs at
//! everything else.

use crate::lexer::{Token, TokenKind};

/// A closure. `body` is the inclusive token-index range of the body —
/// the brace group for block bodies, the expression span otherwise.
#[derive(Debug)]
pub struct Closure {
    pub body: (usize, usize),
}

/// Closure-start detection: a `|` opens a closure when what precedes it
/// cannot end an expression. Binary/pattern `|` always follows a value
/// (identifier, literal, `)`/`]`/`}`).
fn is_closure_start(tokens: &[Token], pipe: usize) -> bool {
    let Some(prev) = pipe.checked_sub(1).map(|i| &tokens[i]) else {
        return false;
    };
    match prev.kind {
        TokenKind::Ident => matches!(prev.text.as_str(), "move" | "return" | "else" | "break"),
        TokenKind::Punct => matches!(
            prev.text.as_str(),
            "(" | "," | "=" | "{" | "[" | ";" | ":" | ">" | "&"
        ),
        _ => false,
    }
}

/// Token index of the `|` closing the parameter list opened at `open`,
/// or `None` when the scan hits a closer first (not a closure).
fn closure_params_end(tokens: &[Token], open: usize) -> Option<usize> {
    let mut depth = 0usize;
    for (j, tok) in tokens.iter().enumerate().skip(open + 1) {
        match tok.text.as_str() {
            "(" | "[" | "{" => depth += 1,
            ")" | "]" | "}" => {
                if depth == 0 {
                    return None;
                }
                depth -= 1;
            }
            "|" if depth == 0 => return Some(j),
            ";" if depth == 0 => return None,
            _ => {}
        }
    }
    None
}

/// The body range starting at `start`: a whole brace group, or an
/// expression running to the first top-level `,`/closer/`;`.
fn closure_body(tokens: &[Token], start: usize) -> (usize, usize) {
    if tokens.get(start).is_some_and(|t| t.text == "{") {
        let mut depth = 0usize;
        for (j, tok) in tokens.iter().enumerate().skip(start) {
            match tok.text.as_str() {
                "{" => depth += 1,
                "}" => {
                    depth -= 1;
                    if depth == 0 {
                        return (start, j);
                    }
                }
                _ => {}
            }
        }
        return (start, tokens.len().saturating_sub(1));
    }
    let mut depth = 0usize;
    let mut end = start;
    for (j, tok) in tokens.iter().enumerate().skip(start) {
        match tok.text.as_str() {
            "(" | "[" | "{" => depth += 1,
            ")" | "]" | "}" => {
                if depth == 0 {
                    break;
                }
                depth -= 1;
            }
            "," | ";" if depth == 0 => break,
            _ => {}
        }
        end = j;
    }
    (start, end)
}

/// Every closure in the token stream, nested ones included, by one
/// linear scan.
pub fn closures(tokens: &[Token]) -> Vec<Closure> {
    let mut out = Vec::new();
    let mut i = 0;
    while i < tokens.len() {
        if tokens[i].text == "|" && is_closure_start(tokens, i) {
            if let Some(params_end) = closure_params_end(tokens, i) {
                let body = closure_body(tokens, params_end + 1);
                out.push(Closure { body });
                // Resume inside the body so nested closures are found.
                i = params_end + 1;
                continue;
            }
        }
        i += 1;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn scan(src: &str) -> (Vec<Token>, Vec<Closure>) {
        let tokens = lex(src).tokens;
        let found = closures(&tokens);
        (tokens, found)
    }

    #[test]
    fn closures_block_and_expression_bodies() {
        let src = "fn f() {\n    run(work, move |w| {\n        w.step()\n    });\n    let g = |x| x + 1;\n    let or = a | b;\n    let pat = matches!(v, Some(1 | 2));\n}\n";
        let (tokens, found) = scan(src);
        assert_eq!(found.len(), 2, "{found:?}");
        let block = &found[0];
        assert_eq!(tokens[block.body.0].text, "{");
        assert_eq!(tokens[block.body.1].text, "}");
        let expr = &found[1];
        assert_eq!(tokens[expr.body.0].text, "x");
        assert_eq!(tokens[expr.body.1].text, "1");
    }

    #[test]
    fn nested_closures_are_both_found() {
        let (_, found) = scan("fn f() { outer(|a| inner(|b| a + b)); }\n");
        assert_eq!(found.len(), 2);
    }

    #[test]
    fn empty_param_closure() {
        let (tokens, found) = scan("fn f() { spawn(move || replay(w)); }\n");
        assert_eq!(found.len(), 1);
        assert_eq!(tokens[found[0].body.0].text, "replay");
    }

    #[test]
    fn logical_or_is_not_a_closure() {
        let (_, found) = scan("fn f(a: bool, b: bool) -> bool { a || b }\n");
        assert!(found.is_empty());
    }
}
