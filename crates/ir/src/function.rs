//! Functions, basic blocks and the SSA value arena.

use crate::constant::Constant;
use crate::inst::Inst;
use crate::types::Ty;
use std::collections::HashMap;
use std::fmt;

/// Identifier of an SSA value within a [`Function`].
///
/// Values are stored in a per-function arena; the id is the arena index.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ValueId(u32);

impl ValueId {
    /// Construct a value id from an arena index.
    pub fn from_index(i: usize) -> ValueId {
        ValueId(u32::try_from(i).expect("value arena overflow"))
    }

    /// The arena index of the value.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for ValueId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "%{}", self.0)
    }
}

/// Identifier of a basic block within a [`Function`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BlockId(u32);

impl BlockId {
    /// Construct a block id from an arena index.
    pub fn from_index(i: usize) -> BlockId {
        BlockId(u32::try_from(i).expect("block arena overflow"))
    }

    /// The arena index of the block.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for BlockId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "bb{}", self.0)
    }
}

/// What a value is: a parameter, a constant, or the result of an instruction.
#[derive(Debug, Clone, PartialEq)]
pub enum ValueKind {
    /// The `index`-th function parameter.
    Param(usize),
    /// A compile-time constant.
    Const(Constant),
    /// The result of (or the effect of) an instruction.
    Inst(Inst),
}

/// A value in the per-function arena: its kind, its type and an optional
/// debug name.
#[derive(Debug, Clone, PartialEq)]
pub struct ValueData {
    /// Parameter / constant / instruction payload.
    pub kind: ValueKind,
    /// The value's static type (`Void` for effect-only instructions).
    pub ty: Ty,
    /// Optional human-readable name used by the printer.
    pub name: Option<String>,
}

/// A batch of `from → to` value replacements, recorded while a pass walks a
/// function and applied in one sweep by [`Function::replace_uses`].
///
/// A target is resolved through the entries recorded before it, and
/// [`resolve`](Replacements::resolve) follows the ones recorded after, so
/// the batch leaves the function as replacing each value eagerly, in order,
/// would have.
#[derive(Debug, Clone, Default)]
pub struct Replacements {
    /// Indexed by value: its replacement, or itself.
    to: Vec<ValueId>,
}

impl Replacements {
    /// Record that every use of `from` becomes a use of `to`. The first
    /// replacement of a value wins, as it does eagerly (a second one finds
    /// no uses left), and replacing a value by itself is a no-op.
    pub fn insert(&mut self, from: ValueId, to: ValueId) {
        let to = self.resolve(to);
        if to != from && !self.contains(from) {
            let n = self.to.len();
            self.to.extend((n..=from.index()).map(ValueId::from_index));
            self.to[from.index()] = to;
        }
    }

    /// The value `v` stands for once the batch is applied.
    pub fn resolve(&self, mut v: ValueId) -> ValueId {
        while let Some(&to) = self.to.get(v.index()).filter(|&&to| to != v) {
            v = to;
        }
        v
    }

    /// Whether `v` is replaced by the batch.
    pub fn contains(&self, v: ValueId) -> bool {
        self.resolve(v) != v
    }

    /// Whether the batch replaces nothing.
    pub fn is_empty(&self) -> bool {
        self.to.is_empty()
    }
}

/// A function's constants indexed by bit pattern, so a pass that interns
/// many constants scans the value arena once instead of once per constant
/// (as [`Function::add_constant`] does). It interns as `add_constant` does:
/// the first bit-equal constant in the arena wins.
#[derive(Debug, Clone, Default)]
pub struct ConstPool {
    by_bits: HashMap<(u8, u64), ValueId>,
}

impl ConstPool {
    /// Index the constants already in `func`.
    pub fn new(func: &Function) -> ConstPool {
        let mut by_bits = HashMap::new();
        for (i, v) in func.values.iter().enumerate() {
            if let ValueKind::Const(c) = &v.kind {
                by_bits.entry(c.bits()).or_insert(ValueId::from_index(i));
            }
        }
        ConstPool { by_bits }
    }

    /// The value of constant `c` in `func`, added to the arena if absent.
    /// `func` must be the function the pool was built from.
    pub fn intern(&mut self, func: &mut Function, c: Constant) -> ValueId {
        *self.by_bits.entry(c.bits()).or_insert_with(|| {
            func.add_value(ValueData {
                kind: ValueKind::Const(c),
                ty: c.ty(),
                name: None,
            })
        })
    }
}

/// A basic block terminator.
#[derive(Debug, Clone, PartialEq)]
pub enum Terminator {
    /// Unconditional branch.
    Br(BlockId),
    /// Two-way conditional branch on a `Bool` value.
    CondBr {
        /// The branch condition.
        cond: ValueId,
        /// Successor when the condition is true.
        then_blk: BlockId,
        /// Successor when the condition is false.
        else_blk: BlockId,
    },
    /// Return from the function, with a value unless the return type is
    /// `Void`.
    Ret(Option<ValueId>),
    /// Control never reaches the end of this block.
    Unreachable,
}

impl Terminator {
    /// Successor blocks of the terminator.
    pub fn successors(&self) -> Vec<BlockId> {
        match self {
            Terminator::Br(b) => vec![*b],
            Terminator::CondBr {
                then_blk, else_blk, ..
            } => vec![*then_blk, *else_blk],
            Terminator::Ret(_) | Terminator::Unreachable => vec![],
        }
    }

    /// Value operands of the terminator.
    pub fn operands(&self) -> Vec<ValueId> {
        match self {
            Terminator::CondBr { cond, .. } => vec![*cond],
            Terminator::Ret(Some(v)) => vec![*v],
            _ => vec![],
        }
    }

    /// Rewrite the value operands of the terminator through `f`.
    pub fn map_operands(&mut self, mut f: impl FnMut(ValueId) -> ValueId) {
        match self {
            Terminator::CondBr { cond, .. } => *cond = f(*cond),
            Terminator::Ret(Some(v)) => *v = f(*v),
            _ => {}
        }
    }

    /// Rewrite the successor blocks of the terminator through `f`.
    pub fn map_successors(&mut self, mut f: impl FnMut(BlockId) -> BlockId) {
        match self {
            Terminator::Br(b) => *b = f(*b),
            Terminator::CondBr {
                then_blk, else_blk, ..
            } => {
                *then_blk = f(*then_blk);
                *else_blk = f(*else_blk);
            }
            _ => {}
        }
    }
}

/// A basic block: an ordered list of instruction value ids plus a terminator.
#[derive(Debug, Clone, PartialEq)]
pub struct BlockData {
    /// Debug name of the block.
    pub name: String,
    /// Instruction results in execution order. Phi nodes must come first.
    pub insts: Vec<ValueId>,
    /// The block terminator; `None` only while the block is being built.
    pub term: Option<Terminator>,
}

/// An IR function: typed parameters, a return type, a value arena and a list
/// of basic blocks in layout order.
#[derive(Debug, Clone, PartialEq)]
pub struct Function {
    /// Function name, unique within its [module](crate::Module).
    pub name: String,
    /// Parameter types.
    pub params: Vec<Ty>,
    /// Return type (`Void` for procedures).
    pub ret_ty: Ty,
    /// The SSA value arena.
    pub values: Vec<ValueData>,
    /// The basic block arena.
    pub blocks: Vec<BlockData>,
    /// Blocks in layout order; `layout[0]` is the entry block.
    pub layout: Vec<BlockId>,
    /// Whether the function is only a declaration (body provided by the
    /// runtime, e.g. baseline helpers); declarations have no blocks.
    pub is_declaration: bool,
}

impl Function {
    /// Create an empty function definition with the given signature.
    pub fn new(name: impl Into<String>, params: Vec<Ty>, ret_ty: Ty) -> Function {
        let name = name.into();
        let mut values = Vec::new();
        for (i, p) in params.iter().enumerate() {
            values.push(ValueData {
                kind: ValueKind::Param(i),
                ty: p.clone(),
                name: Some(format!("arg{i}")),
            });
        }
        Function {
            name,
            params,
            ret_ty,
            values,
            blocks: Vec::new(),
            layout: Vec::new(),
            is_declaration: false,
        }
    }

    /// The value id of the `index`-th parameter.
    ///
    /// # Panics
    /// Panics if `index` is out of range.
    pub fn param_value(&self, index: usize) -> ValueId {
        assert!(index < self.params.len(), "parameter index out of range");
        ValueId::from_index(index)
    }

    /// The entry block, if the function has a body.
    pub fn entry_block(&self) -> Option<BlockId> {
        self.layout.first().copied()
    }

    /// Borrow the data of a value.
    pub fn value(&self, id: ValueId) -> &ValueData {
        &self.values[id.index()]
    }

    /// Mutably borrow the data of a value.
    pub fn value_mut(&mut self, id: ValueId) -> &mut ValueData {
        &mut self.values[id.index()]
    }

    /// The type of a value.
    pub fn ty(&self, id: ValueId) -> &Ty {
        &self.values[id.index()].ty
    }

    /// Borrow a block.
    pub fn block(&self, id: BlockId) -> &BlockData {
        &self.blocks[id.index()]
    }

    /// Mutably borrow a block.
    pub fn block_mut(&mut self, id: BlockId) -> &mut BlockData {
        &mut self.blocks[id.index()]
    }

    /// Append a new empty block and place it at the end of the layout.
    pub fn add_block(&mut self, name: impl Into<String>) -> BlockId {
        let id = BlockId::from_index(self.blocks.len());
        self.blocks.push(BlockData {
            name: name.into(),
            insts: Vec::new(),
            term: None,
        });
        self.layout.push(id);
        id
    }

    /// Add a value to the arena and return its id.
    pub fn add_value(&mut self, data: ValueData) -> ValueId {
        let id = ValueId::from_index(self.values.len());
        self.values.push(data);
        id
    }

    /// Intern a constant, reusing an existing value with the identical bit
    /// pattern when possible.
    pub fn add_constant(&mut self, c: Constant) -> ValueId {
        for (i, v) in self.values.iter().enumerate() {
            if let ValueKind::Const(existing) = &v.kind {
                if existing.bit_eq(&c) {
                    return ValueId::from_index(i);
                }
            }
        }
        let ty = c.ty();
        self.add_value(ValueData {
            kind: ValueKind::Const(c),
            ty,
            name: None,
        })
    }

    /// If `id` is a constant, return it.
    pub fn as_constant(&self, id: ValueId) -> Option<Constant> {
        match &self.value(id).kind {
            ValueKind::Const(c) => Some(*c),
            _ => None,
        }
    }

    /// If `id` is an instruction, borrow it.
    pub fn as_inst(&self, id: ValueId) -> Option<&Inst> {
        match &self.value(id).kind {
            ValueKind::Inst(i) => Some(i),
            _ => None,
        }
    }

    /// If `id` is an instruction, mutably borrow it.
    pub fn as_inst_mut(&mut self, id: ValueId) -> Option<&mut Inst> {
        match &mut self.value_mut(id).kind {
            ValueKind::Inst(i) => Some(i),
            _ => None,
        }
    }

    /// Iterator over blocks in layout order.
    pub fn block_order(&self) -> impl Iterator<Item = BlockId> + '_ {
        self.layout.iter().copied()
    }

    /// Total number of instructions across all blocks in the layout
    /// (a proxy for code size used by inlining heuristics and Fig. 7).
    pub fn inst_count(&self) -> usize {
        self.layout.iter().map(|b| self.block(*b).insts.len()).sum()
    }

    /// Apply a batch of replacements: every use of a replaced value, in
    /// instructions (scheduled or not) and terminators, becomes a use of
    /// what it resolves to, in one sweep. Definitions stay in place (a later
    /// DCE removes them if dead).
    pub fn replace_uses(&mut self, repl: &Replacements) {
        if repl.is_empty() {
            return;
        }
        for value in &mut self.values {
            if let ValueKind::Inst(inst) = &mut value.kind {
                inst.map_operands(|v| repl.resolve(v));
            }
        }
        for term in self.blocks.iter_mut().filter_map(|b| b.term.as_mut()) {
            term.map_operands(|v| repl.resolve(v));
        }
    }

    /// Replace every use of `from` with `to`: a one-entry [`replace_uses`].
    ///
    /// [`replace_uses`]: Function::replace_uses
    pub fn replace_all_uses(&mut self, from: ValueId, to: ValueId) {
        let mut repl = Replacements::default();
        repl.insert(from, to);
        self.replace_uses(&repl);
    }

    /// Rewrite the operands of instruction `id` through a batch not applied
    /// yet, so a pass sees it as eager replacement would have left it.
    pub fn resolve_operands(&mut self, id: ValueId, repl: &Replacements) {
        if let Some(inst) = self.as_inst_mut(id).filter(|_| !repl.is_empty()) {
            inst.map_operands(|v| repl.resolve(v));
        }
    }

    /// Remove every instruction id for which `dead` holds from the block
    /// that schedules it: one `retain` per block, however many ids go.
    pub fn unschedule_if(&mut self, mut dead: impl FnMut(ValueId) -> bool) {
        for blk in &mut self.blocks {
            blk.insts.retain(|&v| !dead(v));
        }
    }

    /// Remove an instruction id from whichever block contains it (the value
    /// stays in the arena but is no longer scheduled).
    pub fn unschedule(&mut self, id: ValueId) {
        self.unschedule_if(|v| v == id);
    }

    /// Number of values in the SSA arena (register-file size for execution).
    pub fn value_count(&self) -> usize {
        self.values.len()
    }

    /// Number of parameters (the first `param_count()` arena values).
    pub fn param_count(&self) -> usize {
        self.params.len()
    }

    /// Static predecessors of a block: every block (in arena order) whose
    /// terminator lists `id` as a successor. This is the edge set a phi node
    /// can be entered through; the execution engine's decoder builds its
    /// per-edge copy tables from it.
    pub fn static_predecessors(&self, id: BlockId) -> Vec<BlockId> {
        let mut preds = Vec::new();
        for (i, blk) in self.blocks.iter().enumerate() {
            if let Some(term) = &blk.term {
                if term.successors().contains(&id) {
                    preds.push(BlockId::from_index(i));
                }
            }
        }
        preds
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inst::{BinOp, Inst};

    fn sample_function() -> Function {
        let mut f = Function::new("f", vec![Ty::F64, Ty::F64], Ty::F64);
        let entry = f.add_block("entry");
        let a = f.param_value(0);
        let b = f.param_value(1);
        let sum = f.add_value(ValueData {
            kind: ValueKind::Inst(Inst::Bin {
                op: BinOp::FAdd,
                lhs: a,
                rhs: b,
            }),
            ty: Ty::F64,
            name: None,
        });
        f.block_mut(entry).insts.push(sum);
        f.block_mut(entry).term = Some(Terminator::Ret(Some(sum)));
        f
    }

    #[test]
    fn params_are_first_values() {
        let f = sample_function();
        assert_eq!(f.param_value(0).index(), 0);
        assert_eq!(f.param_value(1).index(), 1);
        assert_eq!(*f.ty(f.param_value(0)), Ty::F64);
    }

    #[test]
    fn constant_interning_is_bitwise() {
        let mut f = Function::new("g", vec![], Ty::Void);
        let a = f.add_constant(Constant::F64(1.0));
        let b = f.add_constant(Constant::F64(1.0));
        let c = f.add_constant(Constant::F64(-0.0));
        let d = f.add_constant(Constant::F64(0.0));
        assert_eq!(a, b);
        assert_ne!(c, d);
    }

    #[test]
    fn replace_all_uses_rewrites_terminators() {
        let mut f = sample_function();
        let sum = ValueId::from_index(2);
        let k = f.add_constant(Constant::F64(3.0));
        f.replace_all_uses(sum, k);
        let entry = f.entry_block().unwrap();
        assert_eq!(f.block(entry).term, Some(Terminator::Ret(Some(k))));
    }

    /// `a = x+y; b = x+y; dead = b*b (unscheduled); c = b > x; condbr c`,
    /// two arms into a join whose phi takes `b` and `a`, `ret b`.
    fn diamond() -> (Function, [ValueId; 5], [BlockId; 3]) {
        let mut f = Function::new("f", vec![Ty::F64, Ty::F64], Ty::F64);
        let mut b = crate::FunctionBuilder::new(&mut f);
        let entry = b.create_block("entry");
        let left = b.create_block("left");
        let right = b.create_block("right");
        let join = b.create_block("join");
        b.switch_to_block(entry);
        let (x, y) = (b.param(0), b.param(1));
        let a = b.fadd(x, y);
        let bb = b.fadd(x, y);
        let dead = b.fmul(bb, bb);
        let c = b.cmp(crate::CmpPred::FGt, bb, x);
        b.cond_br(c, left, right);
        b.switch_to_block(left);
        b.br(join);
        b.switch_to_block(right);
        b.br(join);
        b.switch_to_block(join);
        let p = b.phi(Ty::F64, vec![(left, bb), (right, a)]);
        b.ret(Some(bb));
        f.unschedule(dead);
        (f, [a, bb, dead, c, p], [left, right, join])
    }

    #[test]
    fn batched_replacement_rewrites_phis_terminators_and_unscheduled_values() {
        let (mut f, [a, b, dead, c, p], [left, right, join]) = diamond();
        let mut eager = f.clone();
        let mut repl = Replacements::default();
        repl.insert(b, a);
        f.replace_uses(&repl);

        let incoming = |f: &Function| match f.as_inst(p) {
            Some(Inst::Phi { incoming, .. }) => incoming.clone(),
            other => panic!("not a phi: {other:?}"),
        };
        assert_eq!(incoming(&f), vec![(left, a), (right, a)]);
        assert_eq!(f.block(join).term, Some(Terminator::Ret(Some(a))));
        let ops = |f: &Function, v| f.as_inst(v).unwrap().operands();
        assert_eq!(ops(&f, c), vec![a, ValueId::from_index(0)]);
        // Unscheduled instructions are rewritten too, as the eager sweep does.
        assert_eq!(ops(&f, dead), vec![a, a]);
        // The replaced definition stays; the target is not itself replaced.
        assert_eq!(ops(&f, b), ops(&f, a));
        assert!(!repl.contains(a));

        eager.replace_all_uses(b, a);
        assert_eq!(f, eager);
    }

    #[test]
    fn batched_replacement_equals_eager_replacement_in_recorded_order() {
        let (mut f, [a, b, dead, c, _], _) = diamond();
        let mut eager = f.clone();
        // `c → dead`, then `dead → a`: a chain. Then `b → c`, whose target
        // is resolved when recorded.
        let steps = [(c, dead), (dead, a), (b, c)];
        let mut repl = Replacements::default();
        for (from, to) in steps {
            // An eager pass reads its target from the IR, where a replaced
            // value no longer appears: it names what `to` became.
            eager.replace_all_uses(from, repl.resolve(to));
            repl.insert(from, to);
        }
        assert_eq!(
            [repl.resolve(c), repl.resolve(dead), repl.resolve(b)],
            [a, a, a]
        );
        f.replace_uses(&repl);
        assert_eq!(f, eager);
    }

    #[test]
    fn replacements_keep_the_first_entry_and_ignore_self_replacement() {
        let v = ValueId::from_index;
        let mut repl = Replacements::default();
        repl.insert(v(1), v(2));
        repl.insert(v(1), v(3));
        repl.insert(v(4), v(4));
        repl.insert(v(2), v(1));
        assert_eq!(repl.resolve(v(1)), v(2));
        assert!(!repl.contains(v(4)));
        assert!(!repl.contains(v(2)));
        assert_eq!(repl.resolve(v(9)), v(9));
    }

    #[test]
    fn unschedule_if_removes_a_whole_set_in_one_sweep() {
        let (mut f, [a, b, _, c, p], [_, _, join]) = diamond();
        let entry = f.entry_block().unwrap();
        f.unschedule_if(|v| v == a || v == p);
        assert_eq!(f.block(entry).insts, vec![b, c]);
        assert!(f.block(join).insts.is_empty());
    }

    #[test]
    fn unschedule_removes_from_block() {
        let mut f = sample_function();
        let entry = f.entry_block().unwrap();
        let sum = f.block(entry).insts[0];
        assert_eq!(f.inst_count(), 1);
        f.unschedule(sum);
        assert_eq!(f.inst_count(), 0);
        assert!(f.blocks.iter().all(|b| !b.insts.contains(&sum)));
    }

    #[test]
    fn static_predecessors_follow_terminators() {
        let mut f = Function::new("g", vec![], Ty::Void);
        let a = f.add_block("a");
        let b = f.add_block("b");
        let c = f.add_block("c");
        let cond = f.add_constant(Constant::Bool(true));
        f.block_mut(a).term = Some(Terminator::CondBr {
            cond,
            then_blk: b,
            else_blk: c,
        });
        f.block_mut(b).term = Some(Terminator::Br(c));
        f.block_mut(c).term = Some(Terminator::Ret(None));
        assert_eq!(f.static_predecessors(a), vec![]);
        assert_eq!(f.static_predecessors(b), vec![a]);
        assert_eq!(f.static_predecessors(c), vec![a, b]);
        assert_eq!(f.param_count(), 0);
        assert!(f.value_count() >= 1);
    }

    #[test]
    fn terminator_successors() {
        let t = Terminator::CondBr {
            cond: ValueId::from_index(0),
            then_blk: BlockId::from_index(1),
            else_blk: BlockId::from_index(2),
        };
        assert_eq!(
            t.successors(),
            vec![BlockId::from_index(1), BlockId::from_index(2)]
        );
        assert_eq!(Terminator::Ret(None).successors(), vec![]);
    }
}
