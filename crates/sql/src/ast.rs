//! The typed AST the parser produces and the binder consumes.
//!
//! Every node that can fail to bind carries the [`Span`] of its source
//! text. [`Query`] implements [`std::fmt::Display`] as a canonical
//! unparser — `parse(q.to_string())` yields the same tree (modulo spans),
//! which the round-trip tests exercise.

use crate::error::Span;
use std::fmt;

/// A parsed `SELECT` statement.
#[derive(Clone, Debug)]
pub struct Query {
    /// `SELECT *` — mutually exclusive with explicit `items`.
    pub star: bool,
    /// The select list, in output order (empty iff `star`).
    pub items: Vec<SelectItem>,
    /// The `FROM` table.
    pub from: TableRef,
    /// Optional `JOIN <table> ON <equi-conditions>`.
    pub join: Option<Join>,
    /// Optional `WHERE` predicate.
    pub where_clause: Option<Expr>,
    /// `GROUP BY` columns, in key order.
    pub group_by: Vec<ColumnRef>,
    /// Optional `HAVING` predicate (over group keys and aggregates).
    pub having: Option<Expr>,
    /// `ORDER BY` keys over the output rows.
    pub order_by: Vec<OrderItem>,
    /// `LIMIT n`.
    pub limit: Option<Limit>,
}

/// One select-list entry: an expression with an optional alias.
#[derive(Clone, Debug)]
pub struct SelectItem {
    pub expr: Expr,
    pub alias: Option<String>,
}

/// A table name in `FROM` or `JOIN`.
#[derive(Clone, Debug)]
pub struct TableRef {
    pub name: String,
    pub span: Span,
}

/// `JOIN <table> ON a.x = b.y [AND …]` — inner equi-join only.
#[derive(Clone, Debug)]
pub struct Join {
    pub table: TableRef,
    /// The `ON` equalities, each `left = right` (sides in source order; the
    /// binder sorts out which table each side belongs to).
    pub on: Vec<(ColumnRef, ColumnRef)>,
    pub span: Span,
}

/// A possibly-qualified column reference.
#[derive(Clone, Debug)]
pub struct ColumnRef {
    /// `table.` qualifier, if written.
    pub table: Option<String>,
    pub name: String,
    pub span: Span,
}

/// One `ORDER BY` key.
#[derive(Clone, Debug)]
pub struct OrderItem {
    pub expr: Expr,
    pub desc: bool,
}

/// `LIMIT n` with the span of `n`.
#[derive(Clone, Copy, Debug)]
pub struct Limit {
    pub n: u64,
    pub span: Span,
}

/// A scalar or predicate expression.
#[derive(Clone, Debug)]
pub enum Expr {
    Column(ColumnRef),
    Literal(Literal, Span),
    /// An aggregate call: `COUNT(*)` or `FUNC(col)`.
    Agg(AggCall),
    /// A comparison between two operands.
    Cmp {
        op: CmpOp,
        left: Box<Expr>,
        right: Box<Expr>,
    },
    And(Box<Expr>, Box<Expr>),
    Or(Box<Expr>, Box<Expr>),
}

impl Expr {
    /// The source span of the expression.
    pub fn span(&self) -> Span {
        match self {
            Expr::Column(c) => c.span,
            Expr::Literal(_, s) => *s,
            Expr::Agg(a) => a.span,
            Expr::Cmp { left, right, .. } => left.span().merge(right.span()),
            Expr::And(l, r) | Expr::Or(l, r) => l.span().merge(r.span()),
        }
    }

    /// Does any aggregate call occur in this expression?
    pub fn has_aggregate(&self) -> bool {
        match self {
            Expr::Agg(_) => true,
            Expr::Column(_) | Expr::Literal(..) => false,
            Expr::Cmp { left, right, .. } => left.has_aggregate() || right.has_aggregate(),
            Expr::And(l, r) | Expr::Or(l, r) => l.has_aggregate() || r.has_aggregate(),
        }
    }
}

/// An aggregate function call. Arguments are restricted to a single column
/// reference (or `*` for `COUNT`), matching what the operators support.
#[derive(Clone, Debug)]
pub struct AggCall {
    /// Function name, uppercased (`COUNT`, `SUM`, …).
    pub func: String,
    /// The argument column (`None` for `COUNT(*)`).
    pub arg: Option<ColumnRef>,
    /// True for `COUNT(*)`.
    pub star: bool,
    pub span: Span,
}

/// A literal value as written.
#[derive(Clone, Debug, PartialEq)]
pub enum Literal {
    Int(i64),
    Float(f64),
    Str(String),
}

/// Comparison operators.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CmpOp {
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
}

impl CmpOp {
    pub fn symbol(self) -> &'static str {
        match self {
            CmpOp::Eq => "=",
            CmpOp::Ne => "<>",
            CmpOp::Lt => "<",
            CmpOp::Le => "<=",
            CmpOp::Gt => ">",
            CmpOp::Ge => ">=",
        }
    }
}

impl fmt::Display for ColumnRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.table {
            Some(t) => write!(f, "{t}.{}", self.name),
            None => write!(f, "{}", self.name),
        }
    }
}

impl fmt::Display for Literal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Literal::Int(v) => write!(f, "{v}"),
            Literal::Float(v) => {
                // Keep a decimal point so the round trip re-lexes as Float.
                if v.fract() == 0.0 && v.is_finite() {
                    write!(f, "{v:.1}")
                } else {
                    write!(f, "{v}")
                }
            }
            Literal::Str(s) => write!(f, "'{}'", s.replace('\'', "''")),
        }
    }
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Expr::Column(c) => write!(f, "{c}"),
            Expr::Literal(l, _) => write!(f, "{l}"),
            Expr::Agg(a) => {
                if a.star {
                    write!(f, "{}(*)", a.func)
                } else {
                    write!(f, "{}({})", a.func, a.arg.as_ref().unwrap())
                }
            }
            Expr::Cmp { op, left, right } => write!(f, "{left} {} {right}", op.symbol()),
            Expr::And(l, r) => {
                // Parenthesize OR under AND to preserve precedence.
                let fmt_side = |f: &mut fmt::Formatter<'_>, e: &Expr| -> fmt::Result {
                    if matches!(e, Expr::Or(..)) {
                        write!(f, "({e})")
                    } else {
                        write!(f, "{e}")
                    }
                };
                fmt_side(f, l)?;
                write!(f, " AND ")?;
                fmt_side(f, r)
            }
            Expr::Or(l, r) => write!(f, "{l} OR {r}"),
        }
    }
}

impl fmt::Display for Query {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SELECT ")?;
        if self.star {
            write!(f, "*")?;
        } else {
            for (i, item) in self.items.iter().enumerate() {
                if i > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{}", item.expr)?;
                if let Some(alias) = &item.alias {
                    write!(f, " AS {alias}")?;
                }
            }
        }
        write!(f, " FROM {}", self.from.name)?;
        if let Some(join) = &self.join {
            write!(f, " JOIN {} ON ", join.table.name)?;
            for (i, (l, r)) in join.on.iter().enumerate() {
                if i > 0 {
                    write!(f, " AND ")?;
                }
                write!(f, "{l} = {r}")?;
            }
        }
        if let Some(w) = &self.where_clause {
            write!(f, " WHERE {w}")?;
        }
        if !self.group_by.is_empty() {
            write!(f, " GROUP BY ")?;
            for (i, c) in self.group_by.iter().enumerate() {
                if i > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{c}")?;
            }
        }
        if let Some(h) = &self.having {
            write!(f, " HAVING {h}")?;
        }
        if !self.order_by.is_empty() {
            write!(f, " ORDER BY ")?;
            for (i, o) in self.order_by.iter().enumerate() {
                if i > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{}", o.expr)?;
                if o.desc {
                    write!(f, " DESC")?;
                }
            }
        }
        if let Some(l) = &self.limit {
            write!(f, " LIMIT {}", l.n)?;
        }
        Ok(())
    }
}
