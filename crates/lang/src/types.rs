//! The MiniC type system.
//!
//! Deliberately small: `void`, `int` (64-bit signed in this implementation),
//! `double`, pointers, and fixed-size (possibly multi-dimensional) arrays.
//! Structs are intentionally absent — see DESIGN.md; the only ITEMGEN rule
//! they would add (struct-return memory write) has no other consumer.

use std::fmt;

/// A MiniC type.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Type {
    Void,
    Int,
    Double,
    /// Pointer to a pointee type.
    Ptr(Box<Type>),
    /// `elem[len]`. `int a[20][10]` is `Array(Array(Int,10),20)`.
    Array(Box<Type>, usize),
}

impl Type {
    /// Size in bytes of a value of this type. Both `int` and `double` are 8
    /// bytes in this implementation (one memory word), which keeps address
    /// arithmetic in the back-end and machine models uniform.
    pub fn size(&self) -> usize {
        match self {
            Type::Void => 0,
            Type::Int | Type::Double | Type::Ptr(_) => 8,
            Type::Array(elem, n) => elem.size() * n,
        }
    }

    pub fn is_array(&self) -> bool {
        matches!(self, Type::Array(..))
    }

    pub fn is_pointer(&self) -> bool {
        matches!(self, Type::Ptr(_))
    }

    pub fn is_numeric(&self) -> bool {
        matches!(self, Type::Int | Type::Double)
    }

    pub fn is_float(&self) -> bool {
        matches!(self, Type::Double)
    }

    /// The element type after one subscript / dereference, if any.
    pub fn element(&self) -> Option<&Type> {
        match self {
            Type::Ptr(t) | Type::Array(t, _) => Some(t),
            _ => None,
        }
    }

    /// The ultimate scalar element type of an array/pointer chain.
    pub fn base_scalar(&self) -> &Type {
        match self {
            Type::Ptr(t) | Type::Array(t, _) => t.base_scalar(),
            t => t,
        }
    }

    /// Array dimension lengths, outermost first (`int a[20][10]` → `[20,10]`).
    pub fn array_dims(&self) -> Vec<usize> {
        let mut dims = Vec::new();
        let mut t = self;
        while let Type::Array(elem, n) = t {
            dims.push(*n);
            t = elem;
        }
        dims
    }

    /// What an array decays to in rvalue / parameter position.
    pub fn decayed(&self) -> Type {
        match self {
            Type::Array(elem, _) => Type::Ptr(elem.clone()),
            t => t.clone(),
        }
    }
}

impl fmt::Display for Type {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Type::Void => write!(f, "void"),
            Type::Int => write!(f, "int"),
            Type::Double => write!(f, "double"),
            Type::Ptr(t) => write!(f, "{t}*"),
            Type::Array(t, n) => write!(f, "{t}[{n}]"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sizes() {
        assert_eq!(Type::Int.size(), 8);
        assert_eq!(Type::Double.size(), 8);
        assert_eq!(Type::Ptr(Box::new(Type::Double)).size(), 8);
        let a = Type::Array(Box::new(Type::Array(Box::new(Type::Int), 10)), 20);
        assert_eq!(a.size(), 1600);
        assert_eq!(Type::Void.size(), 0);
    }

    #[test]
    fn dims_and_base() {
        let a = Type::Array(Box::new(Type::Array(Box::new(Type::Double), 10)), 20);
        assert_eq!(a.array_dims(), vec![20, 10]);
        assert_eq!(*a.base_scalar(), Type::Double);
        assert!(a.is_array());
    }

    #[test]
    fn decay() {
        let a = Type::Array(Box::new(Type::Int), 4);
        assert_eq!(a.decayed(), Type::Ptr(Box::new(Type::Int)));
        assert_eq!(Type::Int.decayed(), Type::Int);
    }

    #[test]
    fn display() {
        assert_eq!(Type::Ptr(Box::new(Type::Int)).to_string(), "int*");
        assert_eq!(Type::Array(Box::new(Type::Double), 8).to_string(), "double[8]");
    }

    #[test]
    fn element_access() {
        let p = Type::Ptr(Box::new(Type::Double));
        assert_eq!(p.element(), Some(&Type::Double));
        assert_eq!(Type::Int.element(), None);
    }
}
