//! Versioned on-disk serialization of compiled artifacts.
//!
//! A [`CompiledModel`] is the unit the serving layer caches and shares: the
//! optimized IR module plus the driver-facing layout and entry-point ids.
//! This module gives it a stable on-disk form so a serving process can warm
//! its artifact cache across restarts instead of recompiling every family.
//!
//! The format is a little-endian binary stream: an 8-byte magic, a `u32`
//! format version, then the compile configuration, entry-point ids, layout
//! tables and the full module (functions, value arenas, blocks, globals).
//! The version stamp is checked before anything else is decoded — a reload
//! from a different format version fails with
//! [`ArtifactError::StaleVersion`] rather than risking a silently skewed
//! decode; callers fall back to recompiling (see the serving cache). Bump
//! [`ARTIFACT_VERSION`] whenever the IR or this encoding changes shape.
//!
//! Round-tripping is exact: the decoded artifact compares equal to the
//! encoded one, so a runner built from a reloaded artifact (via
//! [`Session::build_with`](crate::Session::build_with)) is bit-identical to
//! one built from a fresh compile.

use distill_codegen::{CompileConfig, CompileMode, CompiledModel, Layout};
use distill_exec::{Tier, TierPolicy};
use distill_ir::{
    BinOp, BlockData, BlockId, CastKind, CmpPred, Constant, FuncId, Function, GepIndex, GlobalId,
    Inst, Intrinsic, Module, Terminator, Ty, UnOp, ValueData, ValueId, ValueKind,
};
use distill_opt::{OptLevel, PassStats};
use std::collections::HashMap;
use std::fmt;
use std::path::Path;

/// Format version of the artifact encoding; bump on any shape change.
pub const ARTIFACT_VERSION: u32 = 2;

/// Magic bytes identifying an artifact file.
pub const ARTIFACT_MAGIC: [u8; 8] = *b"DSTLART\0";

/// Failures loading or decoding an artifact.
#[derive(Debug)]
pub enum ArtifactError {
    /// Filesystem failure reading or writing the artifact.
    Io(std::io::Error),
    /// The bytes do not start with the artifact magic.
    BadMagic,
    /// The artifact was written by a different format version.
    StaleVersion {
        /// Version stamped in the file.
        found: u32,
        /// Version this build understands.
        expected: u32,
    },
    /// The stream is structurally invalid (truncated, bad tag, ...).
    Corrupt(String),
}

impl fmt::Display for ArtifactError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ArtifactError::Io(e) => write!(f, "artifact io error: {e}"),
            ArtifactError::BadMagic => write!(f, "not a distill artifact (bad magic)"),
            ArtifactError::StaleVersion { found, expected } => write!(
                f,
                "stale artifact: format version {found}, this build expects {expected}"
            ),
            ArtifactError::Corrupt(msg) => write!(f, "corrupt artifact: {msg}"),
        }
    }
}

impl std::error::Error for ArtifactError {}

impl From<std::io::Error> for ArtifactError {
    fn from(e: std::io::Error) -> ArtifactError {
        ArtifactError::Io(e)
    }
}

/// Canonical cache/filename key for an artifact: the family name plus every
/// compile knob that changes the generated code or the engine policy it
/// rides with. Two sessions with equal keys can share one artifact.
pub fn artifact_key(family: &str, config: &CompileConfig) -> String {
    format!(
        "{family}-{mode:?}-{opt:?}-s{seed:x}-{tier}",
        mode = config.mode,
        opt = config.opt_level,
        seed = config.seed,
        tier = config.tier,
    )
}

/// Encode a compiled artifact to its versioned byte form.
pub fn serialize_artifact(compiled: &CompiledModel) -> Vec<u8> {
    let mut w = Writer::default();
    w.bytes.extend_from_slice(&ARTIFACT_MAGIC);
    w.u32(ARTIFACT_VERSION);
    enc_config(&mut w, &compiled.config);
    // Entry points and sizes.
    w.len(compiled.node_funcs.len());
    for f in &compiled.node_funcs {
        w.u32(f.index() as u32);
    }
    w.opt_u32(compiled.trial_func.map(|f| f.index() as u32));
    w.opt_u32(compiled.batch_func.map(|f| f.index() as u32));
    w.len(compiled.batch_capacity);
    w.opt_u32(compiled.eval_func.map(|f| f.index() as u32));
    w.len(compiled.grid_size);
    enc_pass_stats(&mut w, &compiled.opt_stats);
    enc_layout(&mut w, &compiled.layout);
    enc_module(&mut w, &compiled.module);
    w.bytes
}

/// Decode an artifact from its byte form, checking magic and version first.
///
/// # Errors
/// [`ArtifactError::BadMagic`] / [`ArtifactError::StaleVersion`] on
/// foreign or out-of-date streams, [`ArtifactError::Corrupt`] on anything
/// structurally invalid.
pub fn deserialize_artifact(bytes: &[u8]) -> Result<CompiledModel, ArtifactError> {
    let mut r = Reader { bytes, pos: 0 };
    let magic = r.take(8)?;
    if magic != ARTIFACT_MAGIC {
        return Err(ArtifactError::BadMagic);
    }
    let found = r.u32()?;
    if found != ARTIFACT_VERSION {
        return Err(ArtifactError::StaleVersion {
            found,
            expected: ARTIFACT_VERSION,
        });
    }
    let config = dec_config(&mut r)?;
    let node_funcs = {
        let n = r.len()?;
        let mut v = Vec::with_capacity(n);
        for _ in 0..n {
            v.push(FuncId::from_index(r.u32()? as usize));
        }
        v
    };
    let trial_func = r.opt_u32()?.map(|i| FuncId::from_index(i as usize));
    let batch_func = r.opt_u32()?.map(|i| FuncId::from_index(i as usize));
    let batch_capacity = r.len()?;
    let eval_func = r.opt_u32()?.map(|i| FuncId::from_index(i as usize));
    let grid_size = r.len()?;
    let opt_stats = dec_pass_stats(&mut r)?;
    let layout = dec_layout(&mut r)?;
    let module = dec_module(&mut r)?;
    if r.pos != r.bytes.len() {
        return Err(ArtifactError::Corrupt(format!(
            "{} trailing bytes",
            r.bytes.len() - r.pos
        )));
    }
    for f in node_funcs
        .iter()
        .chain(&trial_func)
        .chain(&batch_func)
        .chain(&eval_func)
    {
        if f.index() >= module.functions.len() {
            return Err(ArtifactError::Corrupt(format!(
                "entry point {} out of range",
                f.index()
            )));
        }
    }
    Ok(CompiledModel {
        module,
        layout,
        node_funcs,
        trial_func,
        batch_func,
        batch_capacity,
        eval_func,
        grid_size,
        opt_stats,
        config,
    })
}

/// Write an artifact to `path` (atomically via a sibling temp file, so a
/// concurrent reader never observes a half-written artifact).
pub fn write_artifact(path: &Path, compiled: &CompiledModel) -> Result<(), ArtifactError> {
    let bytes = serialize_artifact(compiled);
    let tmp = path.with_extension("tmp");
    std::fs::write(&tmp, &bytes)?;
    std::fs::rename(&tmp, path)?;
    Ok(())
}

/// Read and decode an artifact from `path`.
///
/// # Errors
/// Same surface as [`deserialize_artifact`], plus [`ArtifactError::Io`].
pub fn read_artifact(path: &Path) -> Result<CompiledModel, ArtifactError> {
    let mut bytes = std::fs::read(path)?;
    // Chaos seam: an armed plan flips one byte here, which must surface
    // through the codec's integrity checks below, never as a bad artifact.
    crate::chaos::corrupt_artifact_read(&mut bytes);
    deserialize_artifact(&bytes)
}

// ---------------------------------------------------------------------------
// Primitive stream.

#[derive(Default)]
struct Writer {
    bytes: Vec<u8>,
}

impl Writer {
    fn u8(&mut self, v: u8) {
        self.bytes.push(v);
    }
    fn bool(&mut self, v: bool) {
        self.u8(v as u8);
    }
    fn u32(&mut self, v: u32) {
        self.bytes.extend_from_slice(&v.to_le_bytes());
    }
    fn u64(&mut self, v: u64) {
        self.bytes.extend_from_slice(&v.to_le_bytes());
    }
    fn len(&mut self, v: usize) {
        self.u64(v as u64);
    }
    fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }
    fn opt_u32(&mut self, v: Option<u32>) {
        match v {
            None => self.u8(0),
            Some(x) => {
                self.u8(1);
                self.u32(x);
            }
        }
    }
    fn str(&mut self, s: &str) {
        self.len(s.len());
        self.bytes.extend_from_slice(s.as_bytes());
    }
}

struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], ArtifactError> {
        if self.bytes.len() - self.pos < n {
            return Err(ArtifactError::Corrupt("truncated stream".into()));
        }
        let s = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }
    fn u8(&mut self) -> Result<u8, ArtifactError> {
        Ok(self.take(1)?[0])
    }
    fn bool(&mut self) -> Result<bool, ArtifactError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            t => Err(ArtifactError::Corrupt(format!("bad bool tag {t}"))),
        }
    }
    fn u32(&mut self) -> Result<u32, ArtifactError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }
    fn u64(&mut self) -> Result<u64, ArtifactError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }
    /// A length that must be plausible for the remaining stream (guards
    /// against allocating gigabytes from a corrupt count).
    fn len(&mut self) -> Result<usize, ArtifactError> {
        let v = self.u64()? as usize;
        if v > self.bytes.len().saturating_mul(8) {
            return Err(ArtifactError::Corrupt(format!("implausible length {v}")));
        }
        Ok(v)
    }
    fn f64(&mut self) -> Result<f64, ArtifactError> {
        Ok(f64::from_bits(self.u64()?))
    }
    fn opt_u32(&mut self) -> Result<Option<u32>, ArtifactError> {
        match self.u8()? {
            0 => Ok(None),
            1 => Ok(Some(self.u32()?)),
            t => Err(ArtifactError::Corrupt(format!("bad option tag {t}"))),
        }
    }
    fn str(&mut self) -> Result<String, ArtifactError> {
        let n = self.len()?;
        let s = self.take(n)?;
        String::from_utf8(s.to_vec()).map_err(|_| ArtifactError::Corrupt("non-utf8 string".into()))
    }
}

// ---------------------------------------------------------------------------
// Configuration and layout tables.

fn enc_config(w: &mut Writer, c: &CompileConfig) {
    w.u8(match c.mode {
        CompileMode::PerNode => 0,
        CompileMode::WholeModel => 1,
    });
    w.u8(match c.opt_level {
        OptLevel::O0 => 0,
        OptLevel::O1 => 1,
        OptLevel::O2 => 2,
        OptLevel::O3 => 3,
    });
    w.u64(c.seed);
    // Policy tag 0 = fixed tier. Tag 1 was the retired adaptive policy;
    // it stays unassigned so old artifacts decode to `Corrupt`.
    let TierPolicy::Fixed(t) = c.tier;
    w.u8(0);
    w.u8(match t {
        Tier::Reference => 0,
        Tier::Decoded => 1,
        Tier::Fused => 2,
        Tier::Threaded => 3,
    });
}

fn dec_config(r: &mut Reader) -> Result<CompileConfig, ArtifactError> {
    let mode = match r.u8()? {
        0 => CompileMode::PerNode,
        1 => CompileMode::WholeModel,
        t => return Err(ArtifactError::Corrupt(format!("bad mode tag {t}"))),
    };
    let opt_level = match r.u8()? {
        0 => OptLevel::O0,
        1 => OptLevel::O1,
        2 => OptLevel::O2,
        3 => OptLevel::O3,
        t => return Err(ArtifactError::Corrupt(format!("bad opt tag {t}"))),
    };
    let seed = r.u64()?;
    let tier = match r.u8()? {
        0 => TierPolicy::Fixed(match r.u8()? {
            0 => Tier::Reference,
            1 => Tier::Decoded,
            2 => Tier::Fused,
            3 => Tier::Threaded,
            t => return Err(ArtifactError::Corrupt(format!("bad tier tag {t}"))),
        }),
        t => return Err(ArtifactError::Corrupt(format!("bad policy tag {t}"))),
    };
    Ok(CompileConfig {
        mode,
        opt_level,
        seed,
        tier,
    })
}

fn enc_pass_stats(w: &mut Writer, s: &PassStats) {
    for v in [
        s.promoted_allocas,
        s.folded,
        s.dce_removed,
        s.cse_removed,
        s.cfg_simplified,
        s.licm_hoisted,
        s.inlined_calls,
    ] {
        w.len(v);
    }
}

fn dec_pass_stats(r: &mut Reader) -> Result<PassStats, ArtifactError> {
    Ok(PassStats {
        promoted_allocas: r.len()?,
        folded: r.len()?,
        dce_removed: r.len()?,
        cse_removed: r.len()?,
        cfg_simplified: r.len()?,
        licm_hoisted: r.len()?,
        inlined_calls: r.len()?,
    })
}

/// Hash maps are encoded with their entries sorted by key so the byte form
/// is deterministic (byte-equal artifacts for equal models).
fn enc_layout(w: &mut Writer, l: &Layout) {
    let mut params: Vec<_> = l.param_offsets.iter().collect();
    params.sort();
    w.len(params.len());
    for ((node, name), off) in params {
        w.len(*node);
        w.str(name);
        w.len(*off);
    }
    w.len(l.params_len);
    let mut ctrl: Vec<_> = l.controlled.iter().collect();
    ctrl.sort();
    w.len(ctrl.len());
    for ((node, name, elem), sig) in ctrl {
        w.len(*node);
        w.str(name);
        w.len(*elem);
        w.len(*sig);
    }
    let mut state: Vec<_> = l.state_offsets.iter().collect();
    state.sort();
    w.len(state.len());
    for ((node, name), off) in state {
        w.len(*node);
        w.str(name);
        w.len(*off);
    }
    w.len(l.state_len);
    w.len(l.out_offsets.len());
    for ports in &l.out_offsets {
        w.len(ports.len());
        for p in ports {
            w.len(*p);
        }
    }
    w.len(l.out_len);
    let mut ext: Vec<_> = l.ext_offsets.iter().collect();
    ext.sort();
    w.len(ext.len());
    for (node, off) in ext {
        w.len(*node);
        w.len(*off);
    }
    w.len(l.ext_len);
    w.len(l.trial_output_len);
}

fn dec_layout(r: &mut Reader) -> Result<Layout, ArtifactError> {
    let mut l = Layout::default();
    let n = r.len()?;
    let mut param_offsets = HashMap::with_capacity(n);
    for _ in 0..n {
        let node = r.len()?;
        let name = r.str()?;
        let off = r.len()?;
        param_offsets.insert((node, name), off);
    }
    l.param_offsets = param_offsets;
    l.params_len = r.len()?;
    let n = r.len()?;
    let mut controlled = HashMap::with_capacity(n);
    for _ in 0..n {
        let node = r.len()?;
        let name = r.str()?;
        let elem = r.len()?;
        let sig = r.len()?;
        controlled.insert((node, name, elem), sig);
    }
    l.controlled = controlled;
    let n = r.len()?;
    let mut state_offsets = HashMap::with_capacity(n);
    for _ in 0..n {
        let node = r.len()?;
        let name = r.str()?;
        let off = r.len()?;
        state_offsets.insert((node, name), off);
    }
    l.state_offsets = state_offsets;
    l.state_len = r.len()?;
    let n = r.len()?;
    let mut out_offsets = Vec::with_capacity(n);
    for _ in 0..n {
        let m = r.len()?;
        let mut ports = Vec::with_capacity(m);
        for _ in 0..m {
            ports.push(r.len()?);
        }
        out_offsets.push(ports);
    }
    l.out_offsets = out_offsets;
    l.out_len = r.len()?;
    let n = r.len()?;
    let mut ext_offsets = HashMap::with_capacity(n);
    for _ in 0..n {
        let node = r.len()?;
        let off = r.len()?;
        ext_offsets.insert(node, off);
    }
    l.ext_offsets = ext_offsets;
    l.ext_len = r.len()?;
    l.trial_output_len = r.len()?;
    Ok(l)
}

// ---------------------------------------------------------------------------
// IR: types, constants, instructions, functions, module.

fn enc_ty(w: &mut Writer, ty: &Ty) {
    match ty {
        Ty::F64 => w.u8(0),
        Ty::F32 => w.u8(1),
        Ty::I64 => w.u8(2),
        Ty::Bool => w.u8(3),
        Ty::Void => w.u8(4),
        Ty::Ptr(p) => {
            w.u8(5);
            enc_ty(w, p);
        }
        Ty::Array(elem, n) => {
            w.u8(6);
            enc_ty(w, elem);
            w.len(*n);
        }
        Ty::Struct(fields) => {
            w.u8(7);
            w.len(fields.len());
            for f in fields {
                enc_ty(w, f);
            }
        }
    }
}

fn dec_ty(r: &mut Reader) -> Result<Ty, ArtifactError> {
    Ok(match r.u8()? {
        0 => Ty::F64,
        1 => Ty::F32,
        2 => Ty::I64,
        3 => Ty::Bool,
        4 => Ty::Void,
        5 => Ty::Ptr(Box::new(dec_ty(r)?)),
        6 => {
            let elem = dec_ty(r)?;
            let n = r.len()?;
            Ty::Array(Box::new(elem), n)
        }
        7 => {
            let n = r.len()?;
            let mut fields = Vec::with_capacity(n);
            for _ in 0..n {
                fields.push(dec_ty(r)?);
            }
            Ty::Struct(fields)
        }
        t => return Err(ArtifactError::Corrupt(format!("bad type tag {t}"))),
    })
}

fn enc_const(w: &mut Writer, c: &Constant) {
    match c {
        Constant::F64(v) => {
            w.u8(0);
            w.f64(*v);
        }
        Constant::F32(v) => {
            w.u8(1);
            w.u32(v.to_bits());
        }
        Constant::I64(v) => {
            w.u8(2);
            w.u64(*v as u64);
        }
        Constant::Bool(v) => {
            w.u8(3);
            w.bool(*v);
        }
        Constant::Undef => w.u8(4),
    }
}

fn dec_const(r: &mut Reader) -> Result<Constant, ArtifactError> {
    Ok(match r.u8()? {
        0 => Constant::F64(r.f64()?),
        1 => Constant::F32(f32::from_bits(r.u32()?)),
        2 => Constant::I64(r.u64()? as i64),
        3 => Constant::Bool(r.bool()?),
        4 => Constant::Undef,
        t => return Err(ArtifactError::Corrupt(format!("bad constant tag {t}"))),
    })
}

const BIN_OPS: [BinOp; 16] = [
    BinOp::FAdd,
    BinOp::FSub,
    BinOp::FMul,
    BinOp::FDiv,
    BinOp::FRem,
    BinOp::Add,
    BinOp::Sub,
    BinOp::Mul,
    BinOp::SDiv,
    BinOp::SRem,
    BinOp::And,
    BinOp::Or,
    BinOp::Xor,
    BinOp::Shl,
    BinOp::LShr,
    BinOp::AShr,
];

const CMP_PREDS: [CmpPred; 12] = [
    CmpPred::FEq,
    CmpPred::FNe,
    CmpPred::FLt,
    CmpPred::FLe,
    CmpPred::FGt,
    CmpPred::FGe,
    CmpPred::IEq,
    CmpPred::INe,
    CmpPred::ILt,
    CmpPred::ILe,
    CmpPred::IGt,
    CmpPred::IGe,
];

const CAST_KINDS: [CastKind; 6] = [
    CastKind::SiToFp,
    CastKind::FpToSi,
    CastKind::FpTrunc,
    CastKind::FpExt,
    CastKind::ZExtBool,
    CastKind::TruncBool,
];

fn enum_tag<T: PartialEq>(table: &[T], v: &T, what: &str) -> u8 {
    table
        .iter()
        .position(|t| t == v)
        .unwrap_or_else(|| panic!("{what} missing from artifact table")) as u8
}

fn enum_from_tag<T: Copy>(table: &[T], tag: u8, what: &str) -> Result<T, ArtifactError> {
    table
        .get(tag as usize)
        .copied()
        .ok_or_else(|| ArtifactError::Corrupt(format!("bad {what} tag {tag}")))
}

fn enc_value_ids(w: &mut Writer, ids: &[ValueId]) {
    w.len(ids.len());
    for id in ids {
        w.u32(id.index() as u32);
    }
}

fn dec_value_ids(r: &mut Reader) -> Result<Vec<ValueId>, ArtifactError> {
    let n = r.len()?;
    let mut v = Vec::with_capacity(n);
    for _ in 0..n {
        v.push(ValueId::from_index(r.u32()? as usize));
    }
    Ok(v)
}

fn enc_inst(w: &mut Writer, inst: &Inst) {
    match inst {
        Inst::Bin { op, lhs, rhs } => {
            w.u8(0);
            w.u8(enum_tag(&BIN_OPS, op, "binop"));
            w.u32(lhs.index() as u32);
            w.u32(rhs.index() as u32);
        }
        Inst::Un { op, val } => {
            w.u8(1);
            w.u8(match op {
                UnOp::FNeg => 0,
                UnOp::Not => 1,
            });
            w.u32(val.index() as u32);
        }
        Inst::Cmp { pred, lhs, rhs } => {
            w.u8(2);
            w.u8(enum_tag(&CMP_PREDS, pred, "predicate"));
            w.u32(lhs.index() as u32);
            w.u32(rhs.index() as u32);
        }
        Inst::Select {
            cond,
            then_val,
            else_val,
        } => {
            w.u8(3);
            w.u32(cond.index() as u32);
            w.u32(then_val.index() as u32);
            w.u32(else_val.index() as u32);
        }
        Inst::Call { callee, args } => {
            w.u8(4);
            w.u32(callee.index() as u32);
            enc_value_ids(w, args);
        }
        Inst::IntrinsicCall { kind, args } => {
            w.u8(5);
            w.u8(enum_tag(Intrinsic::all(), kind, "intrinsic"));
            enc_value_ids(w, args);
        }
        Inst::Alloca { ty } => {
            w.u8(6);
            enc_ty(w, ty);
        }
        Inst::Load { ptr } => {
            w.u8(7);
            w.u32(ptr.index() as u32);
        }
        Inst::Store { ptr, value } => {
            w.u8(8);
            w.u32(ptr.index() as u32);
            w.u32(value.index() as u32);
        }
        Inst::Gep { base, indices } => {
            w.u8(9);
            w.u32(base.index() as u32);
            w.len(indices.len());
            for idx in indices {
                match idx {
                    GepIndex::Const(i) => {
                        w.u8(0);
                        w.len(*i);
                    }
                    GepIndex::Dyn(v) => {
                        w.u8(1);
                        w.u32(v.index() as u32);
                    }
                }
            }
        }
        Inst::Phi { ty, incoming } => {
            w.u8(10);
            enc_ty(w, ty);
            w.len(incoming.len());
            for (blk, val) in incoming {
                w.u32(blk.index() as u32);
                w.u32(val.index() as u32);
            }
        }
        Inst::Cast { kind, val, to } => {
            w.u8(11);
            w.u8(enum_tag(&CAST_KINDS, kind, "cast"));
            w.u32(val.index() as u32);
            enc_ty(w, to);
        }
        Inst::GlobalAddr { global } => {
            w.u8(12);
            w.u32(global.index() as u32);
        }
    }
}

fn dec_inst(r: &mut Reader) -> Result<Inst, ArtifactError> {
    Ok(match r.u8()? {
        0 => Inst::Bin {
            op: enum_from_tag(&BIN_OPS, r.u8()?, "binop")?,
            lhs: ValueId::from_index(r.u32()? as usize),
            rhs: ValueId::from_index(r.u32()? as usize),
        },
        1 => Inst::Un {
            op: match r.u8()? {
                0 => UnOp::FNeg,
                1 => UnOp::Not,
                t => return Err(ArtifactError::Corrupt(format!("bad unop tag {t}"))),
            },
            val: ValueId::from_index(r.u32()? as usize),
        },
        2 => Inst::Cmp {
            pred: enum_from_tag(&CMP_PREDS, r.u8()?, "predicate")?,
            lhs: ValueId::from_index(r.u32()? as usize),
            rhs: ValueId::from_index(r.u32()? as usize),
        },
        3 => Inst::Select {
            cond: ValueId::from_index(r.u32()? as usize),
            then_val: ValueId::from_index(r.u32()? as usize),
            else_val: ValueId::from_index(r.u32()? as usize),
        },
        4 => Inst::Call {
            callee: FuncId::from_index(r.u32()? as usize),
            args: dec_value_ids(r)?,
        },
        5 => Inst::IntrinsicCall {
            kind: enum_from_tag(Intrinsic::all(), r.u8()?, "intrinsic")?,
            args: dec_value_ids(r)?,
        },
        6 => Inst::Alloca { ty: dec_ty(r)? },
        7 => Inst::Load {
            ptr: ValueId::from_index(r.u32()? as usize),
        },
        8 => Inst::Store {
            ptr: ValueId::from_index(r.u32()? as usize),
            value: ValueId::from_index(r.u32()? as usize),
        },
        9 => {
            let base = ValueId::from_index(r.u32()? as usize);
            let n = r.len()?;
            let mut indices = Vec::with_capacity(n);
            for _ in 0..n {
                indices.push(match r.u8()? {
                    0 => GepIndex::Const(r.len()?),
                    1 => GepIndex::Dyn(ValueId::from_index(r.u32()? as usize)),
                    t => return Err(ArtifactError::Corrupt(format!("bad gep tag {t}"))),
                });
            }
            Inst::Gep { base, indices }
        }
        10 => {
            let ty = dec_ty(r)?;
            let n = r.len()?;
            let mut incoming = Vec::with_capacity(n);
            for _ in 0..n {
                let blk = BlockId::from_index(r.u32()? as usize);
                let val = ValueId::from_index(r.u32()? as usize);
                incoming.push((blk, val));
            }
            Inst::Phi { ty, incoming }
        }
        11 => Inst::Cast {
            kind: enum_from_tag(&CAST_KINDS, r.u8()?, "cast")?,
            val: ValueId::from_index(r.u32()? as usize),
            to: dec_ty(r)?,
        },
        12 => Inst::GlobalAddr {
            global: GlobalId::from_index(r.u32()? as usize),
        },
        t => return Err(ArtifactError::Corrupt(format!("bad inst tag {t}"))),
    })
}

fn enc_term(w: &mut Writer, term: &Terminator) {
    match term {
        Terminator::Br(b) => {
            w.u8(0);
            w.u32(b.index() as u32);
        }
        Terminator::CondBr {
            cond,
            then_blk,
            else_blk,
        } => {
            w.u8(1);
            w.u32(cond.index() as u32);
            w.u32(then_blk.index() as u32);
            w.u32(else_blk.index() as u32);
        }
        Terminator::Ret(v) => {
            w.u8(2);
            w.opt_u32(v.map(|v| v.index() as u32));
        }
        Terminator::Unreachable => w.u8(3),
    }
}

fn dec_term(r: &mut Reader) -> Result<Terminator, ArtifactError> {
    Ok(match r.u8()? {
        0 => Terminator::Br(BlockId::from_index(r.u32()? as usize)),
        1 => Terminator::CondBr {
            cond: ValueId::from_index(r.u32()? as usize),
            then_blk: BlockId::from_index(r.u32()? as usize),
            else_blk: BlockId::from_index(r.u32()? as usize),
        },
        2 => Terminator::Ret(r.opt_u32()?.map(|v| ValueId::from_index(v as usize))),
        3 => Terminator::Unreachable,
        t => return Err(ArtifactError::Corrupt(format!("bad terminator tag {t}"))),
    })
}

fn enc_function(w: &mut Writer, f: &Function) {
    w.str(&f.name);
    w.len(f.params.len());
    for p in &f.params {
        enc_ty(w, p);
    }
    enc_ty(w, &f.ret_ty);
    w.bool(f.is_declaration);
    w.len(f.values.len());
    for v in &f.values {
        match &v.kind {
            ValueKind::Param(i) => {
                w.u8(0);
                w.len(*i);
            }
            ValueKind::Const(c) => {
                w.u8(1);
                enc_const(w, c);
            }
            ValueKind::Inst(inst) => {
                w.u8(2);
                enc_inst(w, inst);
            }
        }
        enc_ty(w, &v.ty);
        match &v.name {
            None => w.u8(0),
            Some(n) => {
                w.u8(1);
                w.str(n);
            }
        }
    }
    w.len(f.blocks.len());
    for b in &f.blocks {
        w.str(&b.name);
        enc_value_ids(w, &b.insts);
        match &b.term {
            None => w.u8(0),
            Some(t) => {
                w.u8(1);
                enc_term(w, t);
            }
        }
    }
    w.len(f.layout.len());
    for b in &f.layout {
        w.u32(b.index() as u32);
    }
}

fn dec_function(r: &mut Reader) -> Result<Function, ArtifactError> {
    let name = r.str()?;
    let n = r.len()?;
    let mut params = Vec::with_capacity(n);
    for _ in 0..n {
        params.push(dec_ty(r)?);
    }
    let ret_ty = dec_ty(r)?;
    let is_declaration = r.bool()?;
    let n = r.len()?;
    let mut values = Vec::with_capacity(n);
    for _ in 0..n {
        let kind = match r.u8()? {
            0 => ValueKind::Param(r.len()?),
            1 => ValueKind::Const(dec_const(r)?),
            2 => ValueKind::Inst(dec_inst(r)?),
            t => return Err(ArtifactError::Corrupt(format!("bad value tag {t}"))),
        };
        let ty = dec_ty(r)?;
        let name = match r.u8()? {
            0 => None,
            1 => Some(r.str()?),
            t => return Err(ArtifactError::Corrupt(format!("bad name tag {t}"))),
        };
        values.push(ValueData { kind, ty, name });
    }
    let n = r.len()?;
    let mut blocks = Vec::with_capacity(n);
    for _ in 0..n {
        let name = r.str()?;
        let insts = dec_value_ids(r)?;
        let term = match r.u8()? {
            0 => None,
            1 => Some(dec_term(r)?),
            t => return Err(ArtifactError::Corrupt(format!("bad term tag {t}"))),
        };
        blocks.push(BlockData { name, insts, term });
    }
    let n = r.len()?;
    let mut layout = Vec::with_capacity(n);
    for _ in 0..n {
        layout.push(BlockId::from_index(r.u32()? as usize));
    }
    Ok(Function {
        name,
        params,
        ret_ty,
        values,
        blocks,
        layout,
        is_declaration,
    })
}

fn enc_module(w: &mut Writer, m: &Module) {
    w.str(&m.name);
    w.len(m.globals.len());
    for g in &m.globals {
        w.str(&g.name);
        enc_ty(w, &g.ty);
        w.len(g.init.len());
        for c in &g.init {
            enc_const(w, c);
        }
        w.bool(g.mutable);
    }
    w.len(m.functions.len());
    for f in &m.functions {
        enc_function(w, f);
    }
}

fn dec_module(r: &mut Reader) -> Result<Module, ArtifactError> {
    let name = r.str()?;
    // Rebuild through the arena API so the module's name→id indices are
    // reconstructed alongside the arenas.
    let mut m = Module::new(name);
    let n = r.len()?;
    for _ in 0..n {
        let name = r.str()?;
        let ty = dec_ty(r)?;
        let k = r.len()?;
        let mut init = Vec::with_capacity(k);
        for _ in 0..k {
            init.push(dec_const(r)?);
        }
        let mutable = r.bool()?;
        if init.len() != ty.slot_count() {
            return Err(ArtifactError::Corrupt(format!(
                "global {name}: {} init slots for type with {}",
                init.len(),
                ty.slot_count()
            )));
        }
        if m.global_by_name(&name).is_some() {
            return Err(ArtifactError::Corrupt(format!("duplicate global {name}")));
        }
        m.add_global(name, ty, init, mutable);
    }
    let n = r.len()?;
    for _ in 0..n {
        let f = dec_function(r)?;
        if m.function_by_name(&f.name).is_some() {
            return Err(ArtifactError::Corrupt(format!(
                "duplicate function {}",
                f.name
            )));
        }
        m.add_function(f);
    }
    Ok(m)
}

#[cfg(test)]
mod tests {
    use super::*;
    use distill_models::predator_prey_s;

    fn compiled() -> CompiledModel {
        distill_codegen::compile(&predator_prey_s().model, CompileConfig::default()).unwrap()
    }

    #[test]
    fn round_trip_is_exact() {
        let c = compiled();
        let bytes = serialize_artifact(&c);
        let d = deserialize_artifact(&bytes).unwrap();
        assert_eq!(c.module, d.module);
        assert_eq!(c.layout, d.layout);
        assert_eq!(c.node_funcs, d.node_funcs);
        assert_eq!(c.trial_func, d.trial_func);
        assert_eq!(c.batch_func, d.batch_func);
        assert_eq!(c.batch_capacity, d.batch_capacity);
        assert_eq!(c.eval_func, d.eval_func);
        assert_eq!(c.grid_size, d.grid_size);
        assert_eq!(c.opt_stats, d.opt_stats);
        assert_eq!(c.config, d.config);
    }

    #[test]
    fn serialization_is_deterministic() {
        let c = compiled();
        assert_eq!(serialize_artifact(&c), serialize_artifact(&c));
    }

    #[test]
    fn reloaded_artifact_runs_identically() {
        use crate::{RunSpec, Session};
        let w = predator_prey_s();
        let c = compiled();
        let reloaded = deserialize_artifact(&serialize_artifact(&c)).unwrap();
        let spec = RunSpec::new(w.inputs.clone(), 3);
        let fresh = Session::new(&w.model)
            .build_with(c)
            .unwrap()
            .run(&spec)
            .unwrap();
        let warm = Session::new(&w.model)
            .build_with(reloaded)
            .unwrap()
            .run(&spec)
            .unwrap();
        assert_eq!(fresh.outputs, warm.outputs);
        assert_eq!(fresh.passes, warm.passes);
    }

    #[test]
    fn stale_version_is_rejected() {
        let mut bytes = serialize_artifact(&compiled());
        // The version stamp sits right after the 8-byte magic.
        bytes[8] = bytes[8].wrapping_add(1);
        match deserialize_artifact(&bytes) {
            Err(ArtifactError::StaleVersion { found, expected }) => {
                assert_eq!(expected, ARTIFACT_VERSION);
                assert_ne!(found, ARTIFACT_VERSION);
            }
            other => panic!("expected stale version, got {other:?}"),
        }
    }

    #[test]
    fn foreign_bytes_are_rejected() {
        assert!(matches!(
            deserialize_artifact(b"not an artifact at all"),
            Err(ArtifactError::BadMagic)
        ));
        let mut bytes = serialize_artifact(&compiled());
        bytes.truncate(bytes.len() / 2);
        assert!(matches!(
            deserialize_artifact(&bytes),
            Err(ArtifactError::Corrupt(_))
        ));
    }

    #[test]
    fn corruption_sweep_yields_typed_errors_never_panics() {
        // Truncate at every prefix length and bit-flip on a stride across
        // the whole buffer: decoding must always return either a valid
        // artifact or a typed error — no panic, no partial state escaping.
        // This is the property the distributed sweep and the serving cache
        // lean on when artifacts cross process and disk boundaries.
        let clean = serialize_artifact(&compiled());
        for cut in (0..clean.len()).step_by(97).chain([clean.len() - 1]) {
            let r = std::panic::catch_unwind(|| deserialize_artifact(&clean[..cut]));
            let decoded = r.unwrap_or_else(|_| panic!("panicked on truncation at {cut}"));
            assert!(decoded.is_err(), "truncation at {cut} must not decode");
        }
        for i in (0..clean.len()).step_by(53) {
            let mut bad = clean.clone();
            bad[i] ^= 0x08;
            let r = std::panic::catch_unwind(|| deserialize_artifact(&bad));
            // A flip may land in a don't-care byte and still decode; what is
            // forbidden is panicking.
            assert!(r.is_ok(), "panicked on bit flip at {i}");
        }
        // An artifact written under the retired adaptive policy (tag 1 in
        // the config's second-to-last byte) is a typed error as well.
        let mut cfg = Writer::default();
        enc_config(&mut cfg, &compiled().config);
        let policy_tag = ARTIFACT_MAGIC.len() + 4 + cfg.bytes.len() - 2;
        let mut retired = clean.clone();
        assert_eq!(retired[policy_tag], 0, "fixed-policy tag");
        retired[policy_tag] = 1;
        let r = std::panic::catch_unwind(|| deserialize_artifact(&retired));
        match r.expect("panicked on the retired policy tag") {
            Err(ArtifactError::Corrupt(m)) => assert!(m.contains("policy tag 1"), "{m}"),
            other => panic!("expected Corrupt, got {:?}", other.map(|_| "an artifact")),
        }

        // The same guarantees through the file path `read_artifact` takes.
        let dir =
            std::env::temp_dir().join(format!("distill-artifact-corrupt-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("bad.dstl");
        std::fs::write(&path, &clean[..clean.len() / 2]).unwrap();
        assert!(matches!(
            read_artifact(&path),
            Err(ArtifactError::Corrupt(_))
        ));
        let mut flipped = clean.clone();
        let mid = clean.len() / 2;
        flipped[mid] ^= 0x01;
        std::fs::write(&path, &flipped).unwrap();
        let _ = read_artifact(&path); // typed result either way, proven above
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn artifact_key_separates_configs() {
        let base = CompileConfig::default();
        let mut other = base;
        other.seed = 1;
        assert_ne!(artifact_key("a", &base), artifact_key("a", &other));
        assert_ne!(artifact_key("a", &base), artifact_key("b", &base));
        assert_eq!(artifact_key("a", &base), artifact_key("a", &base));
    }

    #[test]
    fn write_read_file_round_trip() {
        let dir = std::env::temp_dir().join(format!("distill-artifact-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("pp2.dart");
        let c = compiled();
        write_artifact(&path, &c).unwrap();
        let d = read_artifact(&path).unwrap();
        assert_eq!(c.module, d.module);
        std::fs::remove_dir_all(&dir).ok();
    }
}
