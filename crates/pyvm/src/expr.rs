//! The scalar expression language node computations are written in.
//!
//! A cognitive-model node's `execute` method is, for Distill's purposes, a
//! pure-ish function from its input ports, read-only parameters and
//! read-write state to its output ports (plus state updates). `Expr` is the
//! AST of that function at *scalar element* granularity: vector-valued
//! ports are referenced element-by-element (`Input { port, index }`), which
//! is exactly the monomorphic, shape-specialized form that §3.4.1 of the
//! paper describes ("a separate version of the function for each lexical
//! instance it is invoked").
//!
//! The same AST has two consumers:
//! * the dynamic interpreter in [`crate::interp`] (the baseline), and
//! * the IR lowering in `distill-codegen` (the Distill path),
//!
//! which is what guarantees the two execution paths compute the same model.

use std::fmt;

/// Binary numeric operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NumBinOp {
    /// Addition.
    Add,
    /// Subtraction.
    Sub,
    /// Multiplication.
    Mul,
    /// Division.
    Div,
}

/// Comparison operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CmpOp {
    /// Less-than.
    Lt,
    /// Less-or-equal.
    Le,
    /// Greater-than.
    Gt,
    /// Greater-or-equal.
    Ge,
    /// Equality.
    Eq,
    /// Inequality.
    Ne,
}

/// Math library calls available to node functions (the numpy subset the
/// paper lowers to LLVM intrinsics).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MathFn {
    /// `exp(x)`.
    Exp,
    /// `ln(x)`.
    Log,
    /// `sqrt(x)`.
    Sqrt,
    /// `tanh(x)`.
    Tanh,
    /// `|x|`.
    Abs,
    /// `min(x, y)`.
    Min,
    /// `max(x, y)`.
    Max,
    /// `pow(x, y)`.
    Pow,
    /// `floor(x)`.
    Floor,
}

impl MathFn {
    /// Number of arguments the function takes.
    pub fn arity(&self) -> usize {
        match self {
            MathFn::Min | MathFn::Max | MathFn::Pow => 2,
            _ => 1,
        }
    }

    /// Evaluate the function on concrete arguments.
    pub fn eval(&self, args: &[f64]) -> f64 {
        match self {
            MathFn::Exp => args[0].exp(),
            MathFn::Log => args[0].ln(),
            MathFn::Sqrt => args[0].sqrt(),
            MathFn::Tanh => args[0].tanh(),
            MathFn::Abs => args[0].abs(),
            MathFn::Min => args[0].min(args[1]),
            MathFn::Max => args[0].max(args[1]),
            MathFn::Pow => args[0].powf(args[1]),
            MathFn::Floor => args[0].floor(),
        }
    }
}

/// A scalar expression.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// A literal constant.
    Const(f64),
    /// Element `index` of input port `port`.
    Input {
        /// Input port index on the mechanism.
        port: usize,
        /// Element within the port's value.
        index: usize,
    },
    /// Element `index` of the read-only parameter `name`.
    Param {
        /// Parameter name (a dictionary key in the baseline).
        name: String,
        /// Element within the parameter's value.
        index: usize,
    },
    /// Element `index` of the read-write state entry `name`.
    State {
        /// State entry name.
        name: String,
        /// Element within the state value.
        index: usize,
    },
    /// Binary arithmetic.
    Bin(NumBinOp, Box<Expr>, Box<Expr>),
    /// Negation.
    Neg(Box<Expr>),
    /// Comparison producing 1.0 / 0.0.
    Cmp(CmpOp, Box<Expr>, Box<Expr>),
    /// `if cond != 0 { then } else { otherwise }`.
    If(Box<Expr>, Box<Expr>, Box<Expr>),
    /// Math library call.
    Call(MathFn, Vec<Expr>),
    /// A standard-normal sample from the node's PRNG.
    RandNormal,
    /// A uniform `[0, 1)` sample from the node's PRNG.
    RandUniform,
}

// `add`/`sub`/`mul`/`div` are two-argument AST constructors, not `self`
// methods — the operator traits don't fit their by-value builder shape.
#[allow(clippy::should_implement_trait)]
impl Expr {
    /// `a + b`.
    pub fn add(a: Expr, b: Expr) -> Expr {
        Expr::Bin(NumBinOp::Add, Box::new(a), Box::new(b))
    }

    /// `a - b`.
    pub fn sub(a: Expr, b: Expr) -> Expr {
        Expr::Bin(NumBinOp::Sub, Box::new(a), Box::new(b))
    }

    /// `a * b`.
    pub fn mul(a: Expr, b: Expr) -> Expr {
        Expr::Bin(NumBinOp::Mul, Box::new(a), Box::new(b))
    }

    /// `a / b`.
    pub fn div(a: Expr, b: Expr) -> Expr {
        Expr::Bin(NumBinOp::Div, Box::new(a), Box::new(b))
    }

    /// A literal.
    pub fn lit(v: f64) -> Expr {
        Expr::Const(v)
    }

    /// Element 0 of input port `p`.
    pub fn input(p: usize) -> Expr {
        Expr::Input { port: p, index: 0 }
    }

    /// Element `i` of input port `p`.
    pub fn input_elem(p: usize, i: usize) -> Expr {
        Expr::Input { port: p, index: i }
    }

    /// Element 0 of parameter `name`.
    pub fn param(name: &str) -> Expr {
        Expr::Param {
            name: name.to_string(),
            index: 0,
        }
    }

    /// Element `i` of parameter `name`.
    pub fn param_elem(name: &str, i: usize) -> Expr {
        Expr::Param {
            name: name.to_string(),
            index: i,
        }
    }

    /// Element 0 of state entry `name`.
    pub fn state(name: &str) -> Expr {
        Expr::State {
            name: name.to_string(),
            index: 0,
        }
    }

    /// Element `i` of state entry `name`.
    pub fn state_elem(name: &str, i: usize) -> Expr {
        Expr::State {
            name: name.to_string(),
            index: i,
        }
    }

    /// Call a unary math function.
    pub fn call1(f: MathFn, a: Expr) -> Expr {
        Expr::Call(f, vec![a])
    }

    /// Call a binary math function.
    pub fn call2(f: MathFn, a: Expr, b: Expr) -> Expr {
        Expr::Call(f, vec![a, b])
    }

    /// The logistic function `1 / (1 + exp(-gain * (x - bias)))` as an
    /// expression template (the paper's running example of a framework
    /// library function, §3.4.1).
    pub fn logistic(x: Expr, gain: Expr, bias: Expr) -> Expr {
        let shifted = Expr::sub(x, bias);
        let scaled = Expr::mul(gain, shifted);
        let e = Expr::call1(MathFn::Exp, Expr::Neg(Box::new(scaled)));
        Expr::div(Expr::lit(1.0), Expr::add(Expr::lit(1.0), e))
    }

    /// Number of AST nodes (used as a code-size proxy by compilation-time
    /// accounting, Fig. 7).
    pub fn size(&self) -> usize {
        1 + match self {
            Expr::Bin(_, a, b) | Expr::Cmp(_, a, b) => a.size() + b.size(),
            Expr::Neg(a) => a.size(),
            Expr::If(c, t, e) => c.size() + t.size() + e.size(),
            Expr::Call(_, args) => args.iter().map(Expr::size).sum(),
            _ => 0,
        }
    }

    /// Whether the expression draws random numbers (such nodes need a PRNG
    /// state slot in the static layout, §3.6).
    pub fn uses_rng(&self) -> bool {
        match self {
            Expr::RandNormal | Expr::RandUniform => true,
            Expr::Bin(_, a, b) | Expr::Cmp(_, a, b) => a.uses_rng() || b.uses_rng(),
            Expr::Neg(a) => a.uses_rng(),
            Expr::If(c, t, e) => c.uses_rng() || t.uses_rng() || e.uses_rng(),
            Expr::Call(_, args) => args.iter().any(Expr::uses_rng),
            _ => false,
        }
    }

    /// The set of `(port, index)` input elements the expression reads.
    pub fn input_refs(&self) -> Vec<(usize, usize)> {
        let mut out = Vec::new();
        self.visit(&mut |e| {
            if let Expr::Input { port, index } = e {
                if !out.contains(&(*port, *index)) {
                    out.push((*port, *index));
                }
            }
        });
        out
    }

    /// The set of parameter names the expression reads.
    pub fn param_refs(&self) -> Vec<String> {
        let mut out = Vec::new();
        self.visit(&mut |e| {
            if let Expr::Param { name, .. } = e {
                if !out.contains(name) {
                    out.push(name.clone());
                }
            }
        });
        out
    }

    fn visit(&self, f: &mut impl FnMut(&Expr)) {
        f(self);
        match self {
            Expr::Bin(_, a, b) | Expr::Cmp(_, a, b) => {
                a.visit(f);
                b.visit(f);
            }
            Expr::Neg(a) => a.visit(f),
            Expr::If(c, t, e) => {
                c.visit(f);
                t.visit(f);
                e.visit(f);
            }
            Expr::Call(_, args) => {
                for a in args {
                    a.visit(f);
                }
            }
            _ => {}
        }
    }
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Expr::Const(v) => write!(f, "{v}"),
            Expr::Input { port, index } => write!(f, "in[{port}][{index}]"),
            Expr::Param { name, index } => write!(f, "p.{name}[{index}]"),
            Expr::State { name, index } => write!(f, "s.{name}[{index}]"),
            Expr::Bin(op, a, b) => {
                let sym = match op {
                    NumBinOp::Add => "+",
                    NumBinOp::Sub => "-",
                    NumBinOp::Mul => "*",
                    NumBinOp::Div => "/",
                };
                write!(f, "({a} {sym} {b})")
            }
            Expr::Neg(a) => write!(f, "(-{a})"),
            Expr::Cmp(op, a, b) => {
                let sym = match op {
                    CmpOp::Lt => "<",
                    CmpOp::Le => "<=",
                    CmpOp::Gt => ">",
                    CmpOp::Ge => ">=",
                    CmpOp::Eq => "==",
                    CmpOp::Ne => "!=",
                };
                write!(f, "({a} {sym} {b})")
            }
            Expr::If(c, t, e) => write!(f, "({t} if {c} else {e})"),
            Expr::Call(m, args) => {
                write!(f, "{m:?}(")?;
                for (i, a) in args.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{a}")?;
                }
                write!(f, ")")
            }
            Expr::RandNormal => write!(f, "normal()"),
            Expr::RandUniform => write!(f, "uniform()"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builders_and_size() {
        let e = Expr::logistic(Expr::input(0), Expr::param("gain"), Expr::param("bias"));
        assert!(e.size() >= 9);
        assert!(!e.uses_rng());
        assert_eq!(e.input_refs(), vec![(0, 0)]);
        assert_eq!(e.param_refs(), vec!["gain".to_string(), "bias".to_string()]);
    }

    #[test]
    fn rng_detection() {
        let e = Expr::add(
            Expr::input(0),
            Expr::mul(Expr::param("noise"), Expr::RandNormal),
        );
        assert!(e.uses_rng());
    }

    #[test]
    fn math_fn_eval() {
        assert!((MathFn::Exp.eval(&[0.0]) - 1.0).abs() < 1e-12);
        assert_eq!(MathFn::Max.eval(&[2.0, 3.0]), 3.0);
        assert_eq!(MathFn::Min.arity(), 2);
        assert_eq!(MathFn::Tanh.arity(), 1);
        assert_eq!(MathFn::Abs.eval(&[-2.0]), 2.0);
    }

    #[test]
    fn display_round_trip_readability() {
        let e = Expr::mul(Expr::param("slope"), Expr::input(0));
        assert_eq!(e.to_string(), "(p.slope[0] * in[0][0])");
    }

    #[test]
    fn input_refs_deduplicate() {
        let e = Expr::add(
            Expr::input_elem(1, 2),
            Expr::mul(Expr::input_elem(1, 2), Expr::input(0)),
        );
        assert_eq!(e.input_refs(), vec![(1, 2), (0, 0)]);
    }
}
