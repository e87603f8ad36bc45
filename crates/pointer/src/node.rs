//! Node space of the pointer analysis: abstract memory objects, interned to
//! dense ids. (Pointer variables need no interner: the solver numbers them
//! densely itself.)

use vc_ir::{
    FuncId,
    LocalId, //
};

use crate::fasthash::FastMap;

/// An abstract memory object (an allocation site in Andersen's terms).
#[derive(Clone, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum MemObj {
    /// The stack slot of a local variable.
    Local(FuncId, LocalId),
    /// Field `n` of a local aggregate (field-sensitive objects).
    LocalField(FuncId, LocalId, u32),
    /// A global variable's storage.
    Global(String),
    /// Field `n` of a global aggregate.
    GlobalField(String, u32),
    /// A function, as the target of function pointers.
    Func(String),
    /// A string literal (read-only data).
    Str(String),
    /// The opaque object returned by an unknown/extern function.
    Extern(String),
}

impl MemObj {
    /// The object representing field `n` of `self`.
    ///
    /// Field sensitivity is one level deep: fields of fields collapse into
    /// the field object itself, and opaque objects absorb their fields.
    pub fn field(&self, n: u32) -> Option<MemObj> {
        match self {
            MemObj::Local(f, l) => Some(MemObj::LocalField(*f, *l, n)),
            MemObj::Global(g) => Some(MemObj::GlobalField(g.clone(), n)),
            MemObj::LocalField(..) | MemObj::GlobalField(..) | MemObj::Extern(_) => {
                Some(self.clone())
            }
            MemObj::Func(_) | MemObj::Str(_) => None,
        }
    }

    /// The function name, if this object is a function.
    pub fn as_func(&self) -> Option<&str> {
        match self {
            MemObj::Func(n) => Some(n),
            _ => None,
        }
    }
}

/// Dense interner for objects.
#[derive(Debug, Default)]
pub struct Interner {
    objs: Vec<MemObj>,
    obj_ids: FastMap<MemObj, u32>,
}

impl Interner {
    /// Creates an empty interner.
    pub fn new() -> Self {
        Self::default()
    }

    /// Interns an object.
    pub fn obj(&mut self, o: MemObj) -> u32 {
        if let Some(&id) = self.obj_ids.get(&o) {
            return id;
        }
        let id = self.objs.len() as u32;
        self.objs.push(o.clone());
        self.obj_ids.insert(o, id);
        id
    }

    /// Resolves an object id.
    pub fn obj_ref(&self, id: u32) -> &MemObj {
        &self.objs[id as usize]
    }

    /// Number of interned objects.
    pub fn num_objs(&self) -> usize {
        self.objs.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_is_idempotent() {
        let mut i = Interner::new();
        let a = i.obj(MemObj::Global("g".into()));
        let b = i.obj(MemObj::Global("g".into()));
        assert_eq!(a, b);
        assert_eq!(i.num_objs(), 1);
    }

    #[test]
    fn field_of_local_is_field_object() {
        let o = MemObj::Local(FuncId(0), LocalId(1));
        assert_eq!(
            o.field(2),
            Some(MemObj::LocalField(FuncId(0), LocalId(1), 2))
        );
    }

    #[test]
    fn field_of_field_collapses() {
        let o = MemObj::LocalField(FuncId(0), LocalId(1), 2);
        assert_eq!(o.field(5), Some(o.clone()));
    }

    #[test]
    fn functions_have_no_fields() {
        assert_eq!(MemObj::Func("f".into()).field(0), None);
    }
}
