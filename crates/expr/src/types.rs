//! Static type inference for resolved expressions.
//!
//! The binder uses this to validate queries before execution and to compute
//! output schemas for projections and aggregations.

use gola_common::{DataType, Error, FxHashMap, Result};

use crate::expr::{BinOp, Expr, SubqueryId, UnaryOp};

/// Typing environment: input column types plus the output types of scalar
/// subqueries referenced from this expression.
#[derive(Debug, Clone, Default)]
pub struct TypeEnv {
    columns: Vec<DataType>,
    scalars: FxHashMap<SubqueryId, DataType>,
}

impl TypeEnv {
    pub fn new(columns: Vec<DataType>) -> Self {
        TypeEnv {
            columns,
            scalars: FxHashMap::default(),
        }
    }

    pub fn set_scalar(&mut self, id: SubqueryId, ty: DataType) {
        self.scalars.insert(id, ty);
    }

    fn column(&self, idx: usize) -> Result<DataType> {
        self.columns
            .get(idx)
            .copied()
            .ok_or_else(|| Error::bind(format!("column #{idx} out of range")))
    }

    fn scalar(&self, id: SubqueryId) -> Result<DataType> {
        self.scalars
            .get(&id)
            .copied()
            .ok_or_else(|| Error::bind(format!("untyped subquery reference {id}")))
    }
}

/// Infer the static type of `expr` under `env`, validating operator and
/// function usage along the way.
pub fn infer_type(expr: &Expr, env: &TypeEnv) -> Result<DataType> {
    match expr {
        Expr::Column(i) => env.column(*i),
        Expr::Literal(v) => Ok(v.data_type()),
        Expr::Unary { op, expr } => {
            let t = infer_type(expr, env)?;
            match op {
                UnaryOp::Neg => {
                    if t.is_numeric() || t == DataType::Null {
                        Ok(if t == DataType::Null {
                            DataType::Float
                        } else {
                            t
                        })
                    } else {
                        Err(Error::bind(format!("cannot negate {t}")))
                    }
                }
                UnaryOp::Not => {
                    if t == DataType::Bool || t == DataType::Null {
                        Ok(DataType::Bool)
                    } else {
                        Err(Error::bind(format!("NOT expects BOOL, got {t}")))
                    }
                }
            }
        }
        Expr::Binary { op, left, right } => {
            let lt = infer_type(left, env)?;
            let rt = infer_type(right, env)?;
            if op.is_logical() {
                for t in [lt, rt] {
                    if t != DataType::Bool && t != DataType::Null {
                        return Err(Error::bind(format!(
                            "{} expects BOOL, got {t}",
                            op.symbol()
                        )));
                    }
                }
                return Ok(DataType::Bool);
            }
            if op.is_comparison() {
                lt.unify(rt).ok_or_else(|| {
                    Error::bind(format!("cannot compare {lt} {} {rt}", op.symbol()))
                })?;
                return Ok(DataType::Bool);
            }
            // Arithmetic.
            for t in [lt, rt] {
                if !t.is_numeric() && t != DataType::Null {
                    return Err(Error::bind(format!(
                        "arithmetic {} expects numeric operands, got {t}",
                        op.symbol()
                    )));
                }
            }
            Ok(match op {
                BinOp::Div => DataType::Float,
                _ => {
                    if lt == DataType::Int && rt == DataType::Int {
                        DataType::Int
                    } else {
                        DataType::Float
                    }
                }
            })
        }
        Expr::Func { func, args, name } => {
            let arg_types: Result<Vec<DataType>> =
                args.iter().map(|a| infer_type(a, env)).collect();
            func.return_type(&arg_types?)
                .map_err(|e| Error::bind(format!("in {name}(): {e}")))
        }
        Expr::Case {
            branches,
            else_expr,
        } => {
            let mut out = DataType::Null;
            for (cond, result) in branches {
                let ct = infer_type(cond, env)?;
                if ct != DataType::Bool && ct != DataType::Null {
                    return Err(Error::bind(format!(
                        "CASE condition must be BOOL, got {ct}"
                    )));
                }
                let rt = infer_type(result, env)?;
                out = out
                    .unify(rt)
                    .ok_or_else(|| Error::bind("CASE branches must share a type"))?;
            }
            if let Some(e) = else_expr {
                let et = infer_type(e, env)?;
                out = out
                    .unify(et)
                    .ok_or_else(|| Error::bind("CASE branches must share a type"))?;
            }
            Ok(out)
        }
        Expr::Cast { expr, to } => {
            infer_type(expr, env)?;
            Ok(*to)
        }
        Expr::IsNull { expr, .. } => {
            infer_type(expr, env)?;
            Ok(DataType::Bool)
        }
        Expr::ScalarRef { id, key } => {
            for k in key {
                infer_type(k, env)?;
            }
            env.scalar(*id)
        }
        Expr::InSubquery { key, .. } => {
            for k in key {
                infer_type(k, env)?;
            }
            Ok(DataType::Bool)
        }
        Expr::InList { expr, list, .. } => {
            let t = infer_type(expr, env)?;
            for item in list {
                let it = infer_type(item, env)?;
                t.unify(it).ok_or_else(|| {
                    Error::bind(format!("IN list item type {it} incompatible with {t}"))
                })?;
            }
            Ok(DataType::Bool)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::functions::FunctionRegistry;

    fn env() -> TypeEnv {
        let mut env = TypeEnv::new(vec![
            DataType::Int,
            DataType::Float,
            DataType::Str,
            DataType::Bool,
        ]);
        env.set_scalar(SubqueryId(0), DataType::Float);
        env
    }

    #[test]
    fn arithmetic_typing() {
        let e = Expr::binary(BinOp::Add, Expr::col(0), Expr::col(0));
        assert_eq!(infer_type(&e, &env()).unwrap(), DataType::Int);
        let e = Expr::binary(BinOp::Add, Expr::col(0), Expr::col(1));
        assert_eq!(infer_type(&e, &env()).unwrap(), DataType::Float);
        let e = Expr::binary(BinOp::Div, Expr::col(0), Expr::col(0));
        assert_eq!(infer_type(&e, &env()).unwrap(), DataType::Float);
        let e = Expr::binary(BinOp::Add, Expr::col(0), Expr::col(2));
        assert!(infer_type(&e, &env()).is_err());
    }

    #[test]
    fn comparison_and_logic_typing() {
        let cmp = Expr::gt(Expr::col(0), Expr::col(1));
        assert_eq!(infer_type(&cmp, &env()).unwrap(), DataType::Bool);
        let and = Expr::and(cmp.clone(), Expr::col(3));
        assert_eq!(infer_type(&and, &env()).unwrap(), DataType::Bool);
        let bad = Expr::and(cmp, Expr::col(0));
        assert!(infer_type(&bad, &env()).is_err());
        let bad_cmp = Expr::gt(Expr::col(0), Expr::col(2));
        assert!(infer_type(&bad_cmp, &env()).is_err());
    }

    #[test]
    fn scalar_ref_typing() {
        let e = Expr::gt(
            Expr::col(1),
            Expr::ScalarRef {
                id: SubqueryId(0),
                key: vec![],
            },
        );
        assert_eq!(infer_type(&e, &env()).unwrap(), DataType::Bool);
        let e = Expr::ScalarRef {
            id: SubqueryId(9),
            key: vec![],
        };
        assert!(infer_type(&e, &env()).is_err());
    }

    #[test]
    fn function_typing() {
        let reg = FunctionRegistry::with_builtins();
        let sqrt = reg.get("sqrt").unwrap();
        let e = Expr::Func {
            name: "sqrt".into(),
            func: sqrt.clone(),
            args: vec![Expr::col(1)],
        };
        assert_eq!(infer_type(&e, &env()).unwrap(), DataType::Float);
        let e = Expr::Func {
            name: "sqrt".into(),
            func: sqrt,
            args: vec![Expr::col(2)],
        };
        assert!(infer_type(&e, &env()).is_err());
    }

    #[test]
    fn case_typing() {
        let e = Expr::Case {
            branches: vec![(Expr::col(3), Expr::col(0))],
            else_expr: Some(Box::new(Expr::col(1))),
        };
        assert_eq!(infer_type(&e, &env()).unwrap(), DataType::Float);
        let bad = Expr::Case {
            branches: vec![(Expr::col(3), Expr::col(0))],
            else_expr: Some(Box::new(Expr::col(2))),
        };
        assert!(infer_type(&bad, &env()).is_err());
    }

    #[test]
    fn out_of_range_column() {
        assert!(infer_type(&Expr::col(99), &env()).is_err());
    }
}
