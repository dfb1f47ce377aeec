//! [`Value`]: the runtime "duck type" flowing through traceable programs.
//!
//! Python's torch.fx intercepts operations with a duck-typed `Proxy`
//! object and the `__torch_function__` protocol. Rust is statically
//! typed, so this crate routes every tensor operation through a single
//! dispatch point (see [`crate::dispatch`]) over a `Value` enum instead:
//! a `Value` is either a concrete [`Tensor`], a symbolic [`Proxy`]
//! standing for a node in the graph being captured, or a Python-like
//! immediate (int/float/bool/str/list/tuple/None).
//!
//! The essential property is preserved: **all ops flow through one
//! interception point**, so symbolic tracing needs no compiler frontend —
//! running the model's `forward` with `Proxy` inputs records the graph.

use crate::dispatch;
use crate::error::{Error, Result};
use crate::node::NodeId;
use fx_tensor::Tensor;

/// A symbolic stand-in for a runtime value: a reference to the node in
/// the in-progress [`Graph`](crate::Graph) that will produce it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Proxy {
    /// The node whose output this proxy represents.
    pub node: NodeId,
}

/// A dynamically-typed value: tensor, symbolic proxy, or immediate.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// A concrete tensor.
    Tensor(Tensor),
    /// A symbolic value being traced.
    Proxy(Proxy),
    /// Immediate integer.
    Int(i64),
    /// Immediate float.
    Float(f64),
    /// Immediate boolean.
    Bool(bool),
    /// Immediate string.
    Str(String),
    /// A list of values.
    List(Vec<Value>),
    /// A tuple of values.
    Tuple(Vec<Value>),
    /// Python `None`.
    None,
}

impl Value {
    /// Whether this value *is* a proxy (not merely contains one).
    pub fn is_proxy(&self) -> bool {
        matches!(self, Value::Proxy(_))
    }

    /// Whether a proxy appears anywhere inside this value (recursing into
    /// lists/tuples) — the condition under which an op must be recorded
    /// rather than executed.
    pub fn contains_proxy(&self) -> bool {
        match self {
            Value::Proxy(_) => true,
            Value::List(items) | Value::Tuple(items) => items.iter().any(Value::contains_proxy),
            _ => false,
        }
    }

    /// Borrow the tensor, or report what the value actually was.
    pub fn as_tensor(&self) -> Result<&Tensor> {
        match self {
            Value::Tensor(t) => Ok(t),
            other => Err(Error::BadArg {
                op: "<value>".to_string(),
                expected: "a tensor".to_string(),
                got: other.kind_name().to_string(),
            }),
        }
    }

    /// Extract the tensor by value.
    pub fn into_tensor(self) -> Result<Tensor> {
        match self {
            Value::Tensor(t) => Ok(t),
            other => Err(Error::BadArg {
                op: "<value>".to_string(),
                expected: "a tensor".to_string(),
                got: other.kind_name().to_string(),
            }),
        }
    }

    /// Convert to a concrete `i64`.
    ///
    /// On a [`Proxy`] this returns
    /// [`Error::DataDependentControlFlow`] — the paper's §5.3 guarantee
    /// that symbolic tracing fails loudly instead of silently
    /// specializing on input data.
    pub fn try_int(&self) -> Result<i64> {
        match self {
            Value::Int(v) => Ok(*v),
            Value::Bool(v) => Ok(*v as i64),
            Value::Proxy(p) => Err(Error::DataDependentControlFlow {
                node: crate::trace::node_name(p.node),
                context: "converted to a concrete int".to_string(),
            }),
            other => Err(Error::BadArg {
                op: "int()".to_string(),
                expected: "an integer".to_string(),
                got: other.kind_name().to_string(),
            }),
        }
    }

    /// Convert to a concrete `f64` (ints promote). Proxies error per
    /// §5.3.
    pub fn try_float(&self) -> Result<f64> {
        match self {
            Value::Float(v) => Ok(*v),
            Value::Int(v) => Ok(*v as f64),
            Value::Proxy(p) => Err(Error::DataDependentControlFlow {
                node: crate::trace::node_name(p.node),
                context: "converted to a concrete float".to_string(),
            }),
            other => Err(Error::BadArg {
                op: "float()".to_string(),
                expected: "a float".to_string(),
                got: other.kind_name().to_string(),
            }),
        }
    }

    /// Convert to a concrete `bool` — the operation behind `if`
    /// conditions. Proxies error per §5.3, pointing at the offending
    /// node.
    pub fn try_bool(&self) -> Result<bool> {
        match self {
            Value::Bool(v) => Ok(*v),
            Value::Proxy(p) => Err(Error::DataDependentControlFlow {
                node: crate::trace::node_name(p.node),
                context: "used as a branch condition (cast to bool)".to_string(),
            }),
            other => Err(Error::BadArg {
                op: "bool()".to_string(),
                expected: "a boolean".to_string(),
                got: other.kind_name().to_string(),
            }),
        }
    }

    /// A short description of the value's kind, for error messages.
    pub fn kind_name(&self) -> &'static str {
        match self {
            Value::Tensor(_) => "tensor",
            Value::Proxy(_) => "proxy",
            Value::Int(_) => "int",
            Value::Float(_) => "float",
            Value::Bool(_) => "bool",
            Value::Str(_) => "str",
            Value::List(_) => "list",
            Value::Tuple(_) => "tuple",
            Value::None => "None",
        }
    }

    // ----- method-call sugar -------------------------------------------------

    /// Invoke a method on this value through the dispatcher: recorded as
    /// a `call_method` node when tracing, executed eagerly otherwise.
    ///
    /// `x.method("neg", &[])` is the Rust spelling of Python's
    /// `x.neg()`.
    pub fn method(&self, name: &str, args: &[Value]) -> Result<Value> {
        let mut all = Vec::with_capacity(args.len() + 1);
        all.push(self.clone());
        all.extend_from_slice(args);
        dispatch::call_method(name, &all, &[])
    }

    /// `x.neg()`.
    pub fn neg(&self) -> Result<Value> {
        self.method("neg", &[])
    }

    /// `x.relu()`.
    pub fn relu(&self) -> Result<Value> {
        self.method("relu", &[])
    }

    /// `x.reshape(shape)`.
    pub fn reshape(&self, shape: &[i64]) -> Result<Value> {
        let dims = Value::List(shape.iter().map(|&d| Value::Int(d)).collect());
        self.method("reshape", &[dims])
    }

    /// `x.flatten(start_dim, end_dim)`.
    pub fn flatten(&self, start_dim: i64, end_dim: i64) -> Result<Value> {
        self.method("flatten", &[Value::Int(start_dim), Value::Int(end_dim)])
    }

    /// `x.size()` — the full shape. During tracing this records a node
    /// and returns a proxy rather than specializing (§5.3).
    pub fn size(&self) -> Result<Value> {
        self.method("size", &[])
    }

    /// `x.dim()` — the rank.
    pub fn dim(&self) -> Result<Value> {
        self.method("dim", &[])
    }
}

impl From<Tensor> for Value {
    fn from(t: Tensor) -> Self {
        Value::Tensor(t)
    }
}

impl From<&Tensor> for Value {
    fn from(t: &Tensor) -> Self {
        Value::Tensor(t.clone())
    }
}

impl TryFrom<Value> for Tensor {
    type Error = Error;

    /// [`Value::into_tensor`] as a standard conversion, so
    /// `&[Tensor]`-based kernels and `&[Value]`-based APIs
    /// ([`crate::Executor::run`]) interconvert without ad-hoc glue at
    /// every call site.
    fn try_from(v: Value) -> Result<Tensor> {
        v.into_tensor()
    }
}

impl TryFrom<&Value> for Tensor {
    type Error = Error;

    fn try_from(v: &Value) -> Result<Tensor> {
        v.as_tensor().cloned()
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Float(v)
    }
}

impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Str(v.to_string())
    }
}

macro_rules! binop {
    ($trait:ident, $method:ident, $op:literal) => {
        impl std::ops::$trait for &Value {
            type Output = Value;
            /// Dispatches through the op registry; panics on kernel
            /// errors (use [`crate::func`] for fallible arithmetic).
            fn $method(self, rhs: &Value) -> Value {
                dispatch::call_function($op, &[self.clone(), rhs.clone()], &[])
                    .unwrap_or_else(|e| panic!("`{}` failed: {e}", $op))
            }
        }
        impl std::ops::$trait for Value {
            type Output = Value;
            fn $method(self, rhs: Value) -> Value {
                std::ops::$trait::$method(&self, &rhs)
            }
        }
    };
}

binop!(Add, add, "add");
binop!(Sub, sub, "sub");
binop!(Mul, mul, "mul");
binop!(Div, div, "div");

impl std::ops::Neg for &Value {
    type Output = Value;
    /// Dispatches `neg`; panics on kernel errors.
    fn neg(self) -> Value {
        dispatch::call_function("neg", &[self.clone()], &[])
            .unwrap_or_else(|e| panic!("`neg` failed: {e}"))
    }
}

impl std::ops::Neg for Value {
    type Output = Value;
    fn neg(self) -> Value {
        -&self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proxy_detection_is_deep() {
        let p = Value::Proxy(Proxy {
            node: NodeId::new(0),
        });
        assert!(p.is_proxy());
        let nested = Value::List(vec![Value::Int(1), Value::Tuple(vec![p.clone()])]);
        assert!(!nested.is_proxy());
        assert!(nested.contains_proxy());
        assert!(!Value::Int(1).contains_proxy());
    }

    #[test]
    fn scalar_conversions() {
        assert_eq!(Value::Int(3).try_int().unwrap(), 3);
        assert_eq!(Value::Int(3).try_float().unwrap(), 3.0);
        assert_eq!(Value::Bool(true).try_int().unwrap(), 1);
        assert!(Value::Str("x".into()).try_int().is_err());
        assert!(Value::Bool(true).try_bool().unwrap());
    }

    #[test]
    fn proxy_to_bool_is_the_control_flow_error() {
        let p = Value::Proxy(Proxy {
            node: NodeId::new(7),
        });
        match p.try_bool() {
            Err(Error::DataDependentControlFlow { context, .. }) => {
                assert!(context.contains("branch condition"));
            }
            other => panic!("expected DataDependentControlFlow, got {other:?}"),
        }
        assert!(matches!(
            p.try_int(),
            Err(Error::DataDependentControlFlow { .. })
        ));
        assert!(matches!(
            p.try_float(),
            Err(Error::DataDependentControlFlow { .. })
        ));
    }

    #[test]
    fn eager_operators() {
        let a = Value::Tensor(Tensor::from_vec(vec![1.0, 2.0], &[2]));
        let b = Value::Tensor(Tensor::from_vec(vec![3.0, 4.0], &[2]));
        let c = &a + &b;
        assert_eq!(c.as_tensor().unwrap().as_f32().unwrap(), &[4.0, 6.0]);
        let d = -&c;
        assert_eq!(d.as_tensor().unwrap().as_f32().unwrap(), &[-4.0, -6.0]);
        let e = &a * &Value::Float(2.0);
        assert_eq!(e.as_tensor().unwrap().as_f32().unwrap(), &[2.0, 4.0]);
    }

    #[test]
    fn eager_methods() {
        let a = Value::Tensor(Tensor::from_vec(vec![-1.0, 2.0], &[2]));
        let r = a.relu().unwrap();
        assert_eq!(r.as_tensor().unwrap().as_f32().unwrap(), &[0.0, 2.0]);
        let n = a.neg().unwrap();
        assert_eq!(n.as_tensor().unwrap().as_f32().unwrap(), &[1.0, -2.0]);
        let re = a.reshape(&[2, 1]).unwrap();
        assert_eq!(re.as_tensor().unwrap().shape(), &[2, 1]);
    }

    #[test]
    fn size_and_dim_concrete() {
        let a = Value::Tensor(Tensor::ones(&[2, 3]));
        assert_eq!(
            a.size().unwrap(),
            Value::List(vec![Value::Int(2), Value::Int(3)])
        );
        assert_eq!(a.dim().unwrap(), Value::Int(2));
    }

    #[test]
    fn kind_names() {
        assert_eq!(Value::None.kind_name(), "None");
        assert_eq!(Value::Int(0).kind_name(), "int");
        assert_eq!(Value::Tensor(Tensor::ones(&[1])).kind_name(), "tensor");
    }
}
