//! Source-like pretty printing of programs (useful in reports and when
//! debugging workload models).

use crate::program::Program;
use crate::stmt::{AccessKind, Stmt};
use std::fmt;

impl fmt::Display for Program {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "program {} {{", self.name)?;
        for a in &self.arrays {
            writeln!(f, "  {a}")?;
        }
        for rtn in &self.routines {
            writeln!(f, "  routine {} {{", rtn.name())?;
            print_body(self, rtn.body(), 2, f)?;
            writeln!(f, "  }}")?;
        }
        writeln!(f, "}}")
    }
}

fn print_body(p: &Program, body: &[Stmt], depth: usize, f: &mut fmt::Formatter<'_>) -> fmt::Result {
    let pad = "  ".repeat(depth);
    for stmt in body {
        match stmt {
            Stmt::Loop(l) => {
                writeln!(
                    f,
                    "{pad}do {} = {}, {}{} {{",
                    p.var_name(l.var()),
                    l.lower(),
                    l.upper(),
                    if l.step() == 1 {
                        String::new()
                    } else {
                        format!(", {}", l.step())
                    }
                )?;
                print_body(p, l.body(), depth + 1, f)?;
                writeln!(f, "{pad}}}")?;
            }
            Stmt::Access(id) => {
                let r = p.reference(*id);
                let verb = match r.kind() {
                    AccessKind::Load => "load",
                    AccessKind::Store => "store",
                };
                writeln!(f, "{pad}{verb} {}", r.label())?;
            }
            Stmt::If {
                cond,
                then_body,
                else_body,
            } => {
                writeln!(f, "{pad}if {cond} {{")?;
                print_body(p, then_body, depth + 1, f)?;
                if !else_body.is_empty() {
                    writeln!(f, "{pad}}} else {{")?;
                    print_body(p, else_body, depth + 1, f)?;
                }
                writeln!(f, "{pad}}}")?;
            }
            Stmt::Assign { var, value } => {
                writeln!(f, "{pad}{} = {value}", p.var_name(*var))?;
            }
            Stmt::Call(rtn) => {
                writeln!(f, "{pad}call {}", p.routine(*rtn).name())?;
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use crate::builder::ProgramBuilder;
    use crate::expr::Expr;

    #[test]
    fn pretty_print_contains_structure() {
        let mut p = ProgramBuilder::new("demo");
        let a = p.array("a", 8, &[8]);
        p.routine("main", |r| {
            r.for_("i", 0, 7, |r, i| {
                r.load(a, vec![Expr::var(i)]);
            });
        });
        let text = p.finish().to_string();
        assert!(text.contains("program demo"));
        assert!(text.contains("routine main"));
        assert!(text.contains("do i = 0, 7"));
        assert!(text.contains("load a(var0)"));
    }
}
