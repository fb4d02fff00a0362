//! Three-valued (Kleene) logic for predicate classification.
//!
//! A predicate over uncertain values evaluates to [`Tri::True`] or
//! [`Tri::False`] only when the answer cannot change as variation ranges
//! refine; otherwise it is [`Tri::Maybe`] and the tuple belongs in the
//! uncertain set `Uᵢ` (paper §3.2).

/// Three-valued truth.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Tri {
    True,
    False,
    /// The answer may flip as more mini-batches arrive.
    Maybe,
}

impl Tri {
    /// Kleene conjunction.
    pub fn and(self, other: Tri) -> Tri {
        use Tri::*;
        match (self, other) {
            (False, _) | (_, False) => False,
            (True, True) => True,
            _ => Maybe,
        }
    }

    /// Kleene disjunction.
    pub fn or(self, other: Tri) -> Tri {
        use Tri::*;
        match (self, other) {
            (True, _) | (_, True) => True,
            (False, False) => False,
            _ => Maybe,
        }
    }

    /// Kleene negation.
    #[expect(clippy::should_implement_trait, reason = "`!tri` reads worse")]
    pub fn not(self) -> Tri {
        match self {
            Tri::True => Tri::False,
            Tri::False => Tri::True,
            Tri::Maybe => Tri::Maybe,
        }
    }

    /// `true` iff the truth value can no longer change.
    pub fn is_deterministic(self) -> bool {
        self != Tri::Maybe
    }
}

impl From<bool> for Tri {
    fn from(b: bool) -> Tri {
        if b {
            Tri::True
        } else {
            Tri::False
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use Tri::*;

    const ALL: [Tri; 3] = [True, False, Maybe];

    #[test]
    fn kleene_tables() {
        assert_eq!(True.and(Maybe), Maybe);
        assert_eq!(False.and(Maybe), False);
        assert_eq!(True.or(Maybe), True);
        assert_eq!(False.or(Maybe), Maybe);
        assert_eq!(Maybe.not(), Maybe);
        assert_eq!(True.not(), False);
    }

    #[test]
    fn de_morgan_holds() {
        for a in ALL {
            for b in ALL {
                assert_eq!(a.and(b).not(), a.not().or(b.not()));
                assert_eq!(a.or(b).not(), a.not().and(b.not()));
            }
        }
    }

    #[test]
    fn and_or_commute() {
        for a in ALL {
            for b in ALL {
                assert_eq!(a.and(b), b.and(a));
                assert_eq!(a.or(b), b.or(a));
            }
        }
    }
}
