//! Modules and global variables.

use crate::constant::Constant;
use crate::function::Function;
use crate::types::Ty;
use std::collections::HashMap;
use std::fmt;

/// Identifier of a function within a [`Module`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FuncId(u32);

impl FuncId {
    /// Construct a function id from an arena index.
    pub fn from_index(i: usize) -> FuncId {
        FuncId(u32::try_from(i).expect("function arena overflow"))
    }

    /// The arena index of the function.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for FuncId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "@fn{}", self.0)
    }
}

/// Identifier of a global variable within a [`Module`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct GlobalId(u32);

impl GlobalId {
    /// Construct a global id from an arena index.
    pub fn from_index(i: usize) -> GlobalId {
        GlobalId(u32::try_from(i).expect("global arena overflow"))
    }

    /// The arena index of the global.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for GlobalId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "@g{}", self.0)
    }
}

/// A module-level global variable.
///
/// Distill's dynamic-to-static conversion (§3.3 of the paper) turns node
/// outputs, read-only parameters, read-write parameters and trial
/// inputs/outputs into statically-sized globals; the execution engine
/// materializes them in its memory before running compiled code.
#[derive(Debug, Clone, PartialEq)]
pub struct Global {
    /// Name of the global, unique within the module.
    pub name: String,
    /// Type of the stored value (not of the pointer).
    pub ty: Ty,
    /// Flat, slot-ordered initializer. Must have exactly `ty.slot_count()`
    /// entries; `Constant::Undef` marks slots initialized at run time.
    pub init: Vec<Constant>,
    /// Whether compiled code may write to the global. Read-only parameter
    /// structures are immutable: nothing writes them at run time, so the
    /// optimizer's load/store pass (`distill_opt::memopt`) folds loads of
    /// their constant slots to the initializer, and LICM hoists loads of
    /// them out of loops.
    pub mutable: bool,
}

/// A compilation unit: functions plus global variables.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Module {
    /// Module name (used only for diagnostics and printing).
    pub name: String,
    /// Function arena.
    pub functions: Vec<Function>,
    /// Global arena.
    pub globals: Vec<Global>,
    func_names: HashMap<String, FuncId>,
    global_names: HashMap<String, GlobalId>,
}

impl Module {
    /// Create an empty module.
    pub fn new(name: impl Into<String>) -> Module {
        Module {
            name: name.into(),
            ..Module::default()
        }
    }

    /// Declare (and define, initially empty) a function; returns its id.
    ///
    /// # Panics
    /// Panics if a function with the same name already exists.
    pub fn declare_function(
        &mut self,
        name: impl Into<String>,
        params: Vec<Ty>,
        ret_ty: Ty,
    ) -> FuncId {
        let name = name.into();
        assert!(
            !self.func_names.contains_key(&name),
            "duplicate function name {name}"
        );
        let id = FuncId::from_index(self.functions.len());
        self.func_names.insert(name.clone(), id);
        self.functions.push(Function::new(name, params, ret_ty));
        id
    }

    /// Add an already-built function; returns its id.
    ///
    /// # Panics
    /// Panics if a function with the same name already exists.
    pub fn add_function(&mut self, func: Function) -> FuncId {
        assert!(
            !self.func_names.contains_key(&func.name),
            "duplicate function name {}",
            func.name
        );
        let id = FuncId::from_index(self.functions.len());
        self.func_names.insert(func.name.clone(), id);
        self.functions.push(func);
        id
    }

    /// Borrow a function by id.
    pub fn function(&self, id: FuncId) -> &Function {
        &self.functions[id.index()]
    }

    /// Mutably borrow a function by id.
    pub fn function_mut(&mut self, id: FuncId) -> &mut Function {
        &mut self.functions[id.index()]
    }

    /// Look up a function id by name.
    pub fn function_by_name(&self, name: &str) -> Option<FuncId> {
        self.func_names.get(name).copied()
    }

    /// Iterator over `(id, function)` pairs.
    pub fn iter_functions(&self) -> impl Iterator<Item = (FuncId, &Function)> {
        self.functions
            .iter()
            .enumerate()
            .map(|(i, f)| (FuncId::from_index(i), f))
    }

    /// Define a global variable; returns its id.
    ///
    /// # Panics
    /// Panics if the initializer length does not match the type's slot count
    /// or a global with the same name already exists.
    pub fn add_global(
        &mut self,
        name: impl Into<String>,
        ty: Ty,
        init: Vec<Constant>,
        mutable: bool,
    ) -> GlobalId {
        let name = name.into();
        assert!(
            !self.global_names.contains_key(&name),
            "duplicate global name {name}"
        );
        assert_eq!(
            init.len(),
            ty.slot_count(),
            "global {name}: initializer length {} does not match slot count {}",
            init.len(),
            ty.slot_count()
        );
        let id = GlobalId::from_index(self.globals.len());
        self.global_names.insert(name.clone(), id);
        self.globals.push(Global {
            name,
            ty,
            init,
            mutable,
        });
        id
    }

    /// Define a global of the given type filled with zero-valued slots.
    pub fn add_zeroed_global(
        &mut self,
        name: impl Into<String>,
        ty: Ty,
        mutable: bool,
    ) -> GlobalId {
        let init = zero_initializer(&ty);
        self.add_global(name, ty, init, mutable)
    }

    /// Borrow a global by id.
    pub fn global(&self, id: GlobalId) -> &Global {
        &self.globals[id.index()]
    }

    /// Mutably borrow a global by id.
    pub fn global_mut(&mut self, id: GlobalId) -> &mut Global {
        &mut self.globals[id.index()]
    }

    /// Look up a global id by name.
    pub fn global_by_name(&self, name: &str) -> Option<GlobalId> {
        self.global_names.get(name).copied()
    }

    /// Iterator over `(id, global)` pairs.
    pub fn iter_globals(&self) -> impl Iterator<Item = (GlobalId, &Global)> {
        self.globals
            .iter()
            .enumerate()
            .map(|(i, g)| (GlobalId::from_index(i), g))
    }

    /// Total instruction count across all functions (code-size proxy).
    pub fn inst_count(&self) -> usize {
        self.functions.iter().map(Function::inst_count).sum()
    }
}

/// Produce a flat zero initializer for a type: floats are `0.0`, integers
/// `0`, booleans `false`.
pub fn zero_initializer(ty: &Ty) -> Vec<Constant> {
    fn fill(ty: &Ty, out: &mut Vec<Constant>) {
        match ty {
            Ty::Void => {}
            Ty::F64 => out.push(Constant::F64(0.0)),
            Ty::F32 => out.push(Constant::F32(0.0)),
            Ty::I64 | Ty::Ptr(_) => out.push(Constant::I64(0)),
            Ty::Bool => out.push(Constant::Bool(false)),
            Ty::Array(elem, n) => {
                for _ in 0..*n {
                    fill(elem, out);
                }
            }
            Ty::Struct(fields) => {
                for f in fields {
                    fill(f, out);
                }
            }
        }
    }
    let mut out = Vec::with_capacity(ty.slot_count());
    fill(ty, &mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn declare_and_lookup_functions() {
        let mut m = Module::new("m");
        let f = m.declare_function("f", vec![Ty::F64], Ty::F64);
        let g = m.declare_function("g", vec![], Ty::Void);
        assert_eq!(m.function_by_name("f"), Some(f));
        assert_eq!(m.function_by_name("g"), Some(g));
        assert_eq!(m.function_by_name("h"), None);
        assert_eq!(m.function(f).params.len(), 1);
    }

    #[test]
    #[should_panic]
    fn duplicate_function_name_panics() {
        let mut m = Module::new("m");
        m.declare_function("f", vec![], Ty::Void);
        m.declare_function("f", vec![], Ty::Void);
    }

    #[test]
    fn globals_with_zero_init() {
        let mut m = Module::new("m");
        let ty = Ty::Struct(vec![Ty::F64, Ty::array(Ty::I64, 2), Ty::Bool]);
        let g = m.add_zeroed_global("params", ty.clone(), true);
        assert_eq!(m.global(g).init.len(), ty.slot_count());
        assert_eq!(m.global(g).init[0], Constant::F64(0.0));
        assert_eq!(m.global(g).init[1], Constant::I64(0));
        assert_eq!(m.global(g).init[3], Constant::Bool(false));
        assert_eq!(m.global_by_name("params"), Some(g));
    }

    #[test]
    #[should_panic]
    fn mismatched_initializer_panics() {
        let mut m = Module::new("m");
        m.add_global("g", Ty::array(Ty::F64, 3), vec![Constant::F64(0.0)], true);
    }

    #[test]
    fn zero_initializer_shapes() {
        assert_eq!(zero_initializer(&Ty::F64), vec![Constant::F64(0.0)]);
        assert_eq!(zero_initializer(&Ty::array(Ty::Bool, 2)).len(), 2);
        assert_eq!(
            zero_initializer(&Ty::Struct(vec![Ty::F64, Ty::F64, Ty::I64])).len(),
            3
        );
    }
}
