//! Dependency-free binary serialization for durable flow state.
//!
//! The design-service job farm (`camsoc-serve`) must survive a killed
//! process: every completed flow stage is checkpointed to disk and a
//! restarted farm resumes each job from its last good stage
//! **bit-identically**. The workspace builds fully offline (no serde),
//! so this module hand-rolls the wire format:
//!
//! * little-endian fixed-width integers — no varint cleverness, so a
//!   value always round-trips to the same bytes;
//! * `f64` as [`f64::to_bits`] — timing slacks, coordinates and delays
//!   survive the disk bit-for-bit, NaN payloads and signed zeros
//!   included;
//! * strings as length-prefixed UTF-8 (validated on decode), raw byte
//!   payloads (GDSII streams) length-prefixed and untouched;
//! * every length and index decoded through **checked** conversions —
//!   a corrupt or truncated file surfaces as a typed [`CodecError`],
//!   never a panic or a silently wrong value.
//!
//! The [`Codec`] trait is implemented next to each type it serializes
//! (here for the netlist IR and equivalence types; `camsoc-sta`,
//! `camsoc-dft`, `camsoc-layout` and `camsoc-core` implement it for
//! their own products). Container-level versioning (magic + format
//! version) belongs to the outermost artifact — see
//! `camsoc_core::persist` — not to the per-type codecs.
//!
//! # Example
//!
//! ```
//! use camsoc_netlist::codec::{Codec, Decoder, Encoder};
//!
//! let mut e = Encoder::new();
//! ("hold_net".to_string(), f64::NAN).encode(&mut e);
//! let bytes = e.into_bytes();
//! let mut d = Decoder::new(&bytes);
//! let (name, slack) = <(String, f64)>::decode(&mut d).unwrap();
//! assert_eq!(name, "hold_net");
//! assert!(slack.is_nan()); // bit-identical, NaN included
//! assert!(d.is_empty());
//! ```

use std::collections::HashMap;
use std::time::Duration;

use crate::cell::{Cell, CellFunction, Drive};
use crate::equiv::{EquivOptions, EquivReport, EquivVerdict, SinkKey};
use crate::graph::{
    Driver, Instance, InstanceId, MacroId, MacroInst, Net, NetId, Netlist, Port, PortDir,
    PortId,
};
use crate::tech::{Technology, TechnologyNode};
use camsoc_par::Parallelism;

/// A decode failure. Encoding is infallible by construction (every
/// in-memory value has a representation); decoding checks everything.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// The buffer ended before the value did.
    Truncated {
        /// Bytes the decoder needed.
        needed: usize,
        /// Bytes that were left.
        available: usize,
    },
    /// The bytes decoded but violate an invariant of the target type.
    Corrupt(String),
    /// A container carried a format version this build does not read.
    Version {
        /// Version found in the container header.
        found: u32,
        /// Newest version this build supports.
        supported: u32,
    },
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecError::Truncated { needed, available } => {
                write!(f, "truncated: needed {needed} bytes, {available} available")
            }
            CodecError::Corrupt(m) => write!(f, "corrupt: {m}"),
            CodecError::Version { found, supported } => {
                write!(f, "unsupported format version {found} (supported: {supported})")
            }
        }
    }
}

impl std::error::Error for CodecError {}

/// Byte-buffer writer. Append-only; obtain the result with
/// [`Encoder::into_bytes`].
#[derive(Debug, Default)]
pub struct Encoder {
    buf: Vec<u8>,
}

impl Encoder {
    /// Fresh empty encoder.
    pub fn new() -> Self {
        Encoder::default()
    }

    /// The encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Append one byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Append a little-endian `u32`.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a little-endian `u64`.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a `usize` as a `u64`. The widening conversion cannot
    /// truncate on any supported platform (`usize` ≤ 64 bits).
    pub fn put_usize(&mut self, v: usize) {
        self.put_u64(v as u64);
    }

    /// Append an `f64` bit pattern (NaN payloads and `-0.0` preserved).
    pub fn put_f64(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }

    /// Append a bool as one byte (0/1).
    pub fn put_bool(&mut self, v: bool) {
        self.put_u8(u8::from(v));
    }

    /// Append a length-prefixed UTF-8 string.
    pub fn put_str(&mut self, s: &str) {
        self.put_usize(s.len());
        self.buf.extend_from_slice(s.as_bytes());
    }

    /// Append a length-prefixed raw byte payload (no UTF-8 constraint).
    pub fn put_bytes(&mut self, b: &[u8]) {
        self.put_usize(b.len());
        self.buf.extend_from_slice(b);
    }

    /// Append a bit-packed bool slice (length prefix + ⌈n/8⌉ bytes,
    /// LSB-first within each byte). Test-pattern sets compress 8x.
    pub fn put_bits(&mut self, bits: &[bool]) {
        self.put_usize(bits.len());
        let mut byte = 0u8;
        for (i, &b) in bits.iter().enumerate() {
            if b {
                byte |= 1 << (i % 8);
            }
            if i % 8 == 7 {
                self.buf.push(byte);
                byte = 0;
            }
        }
        if !bits.len().is_multiple_of(8) {
            self.buf.push(byte);
        }
    }
}

/// Cursor over an encoded byte slice. Every read is bounds-checked.
#[derive(Debug)]
pub struct Decoder<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Decoder<'a> {
    /// Decode from the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Decoder { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// True when every byte has been consumed.
    pub fn is_empty(&self) -> bool {
        self.remaining() == 0
    }

    /// Error unless the buffer is fully consumed (a container check:
    /// trailing garbage means the file does not mean what we think).
    pub fn expect_end(&self) -> Result<(), CodecError> {
        if self.is_empty() {
            Ok(())
        } else {
            Err(CodecError::Corrupt(format!(
                "{} trailing bytes after the last value",
                self.remaining()
            )))
        }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        if self.remaining() < n {
            return Err(CodecError::Truncated { needed: n, available: self.remaining() });
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Read one byte.
    pub fn get_u8(&mut self) -> Result<u8, CodecError> {
        Ok(self.take(1)?[0])
    }

    /// Read a little-endian `u32`.
    pub fn get_u32(&mut self) -> Result<u32, CodecError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes(b.try_into().expect("4-byte slice")))
    }

    /// Read a little-endian `u64`.
    pub fn get_u64(&mut self) -> Result<u64, CodecError> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes(b.try_into().expect("8-byte slice")))
    }

    /// Read a `u64` and narrow it to `usize` with a checked conversion.
    pub fn get_usize(&mut self) -> Result<usize, CodecError> {
        let v = self.get_u64()?;
        usize::try_from(v)
            .map_err(|_| CodecError::Corrupt(format!("length {v} exceeds usize")))
    }

    /// Read a length that is about to size an allocation: checked to
    /// `usize` **and** sanity-capped against the bytes remaining (each
    /// element needs at least `min_element_bytes`), so a corrupt length
    /// cannot provoke a huge allocation before the inevitable
    /// `Truncated` error.
    pub fn get_len(&mut self, min_element_bytes: usize) -> Result<usize, CodecError> {
        let n = self.get_usize()?;
        let floor = n.saturating_mul(min_element_bytes.max(1));
        if floor > self.remaining() {
            return Err(CodecError::Truncated { needed: floor, available: self.remaining() });
        }
        Ok(n)
    }

    /// Read an `f64` bit pattern.
    pub fn get_f64(&mut self) -> Result<f64, CodecError> {
        Ok(f64::from_bits(self.get_u64()?))
    }

    /// Read a bool; any byte other than 0/1 is corruption.
    pub fn get_bool(&mut self) -> Result<bool, CodecError> {
        match self.get_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(CodecError::Corrupt(format!("bool byte {b:#04x}"))),
        }
    }

    /// Read a length-prefixed UTF-8 string.
    pub fn get_str(&mut self) -> Result<String, CodecError> {
        let n = self.get_len(1)?;
        let b = self.take(n)?;
        String::from_utf8(b.to_vec())
            .map_err(|e| CodecError::Corrupt(format!("invalid UTF-8 string: {e}")))
    }

    /// Read a length-prefixed raw byte payload.
    pub fn get_bytes(&mut self) -> Result<Vec<u8>, CodecError> {
        let n = self.get_len(1)?;
        Ok(self.take(n)?.to_vec())
    }

    /// Read a bit-packed bool vector written by [`Encoder::put_bits`].
    pub fn get_bits(&mut self) -> Result<Vec<bool>, CodecError> {
        let n = self.get_usize()?;
        let nbytes = n.div_ceil(8);
        let bytes = self.take(nbytes)?;
        let mut out = Vec::with_capacity(n);
        for i in 0..n {
            out.push(bytes[i / 8] & (1 << (i % 8)) != 0);
        }
        Ok(out)
    }
}

/// Symmetric binary encode/decode. Implementations must round-trip
/// bit-identically: `decode(encode(x)) == x` with every `f64` compared
/// via `to_bits`.
pub trait Codec: Sized {
    /// Append this value to the encoder.
    fn encode(&self, e: &mut Encoder);
    /// Read one value of this type.
    ///
    /// # Errors
    ///
    /// [`CodecError`] on truncation or any invariant violation.
    fn decode(d: &mut Decoder<'_>) -> Result<Self, CodecError>;
}

// ---------------------------------------------------------------------
// Primitive impls
// ---------------------------------------------------------------------

impl Codec for bool {
    fn encode(&self, e: &mut Encoder) {
        e.put_bool(*self);
    }
    fn decode(d: &mut Decoder<'_>) -> Result<Self, CodecError> {
        d.get_bool()
    }
}

impl Codec for u8 {
    fn encode(&self, e: &mut Encoder) {
        e.put_u8(*self);
    }
    fn decode(d: &mut Decoder<'_>) -> Result<Self, CodecError> {
        d.get_u8()
    }
}

impl Codec for u32 {
    fn encode(&self, e: &mut Encoder) {
        e.put_u32(*self);
    }
    fn decode(d: &mut Decoder<'_>) -> Result<Self, CodecError> {
        d.get_u32()
    }
}

impl Codec for u64 {
    fn encode(&self, e: &mut Encoder) {
        e.put_u64(*self);
    }
    fn decode(d: &mut Decoder<'_>) -> Result<Self, CodecError> {
        d.get_u64()
    }
}

impl Codec for usize {
    fn encode(&self, e: &mut Encoder) {
        e.put_usize(*self);
    }
    fn decode(d: &mut Decoder<'_>) -> Result<Self, CodecError> {
        d.get_usize()
    }
}

impl Codec for f64 {
    fn encode(&self, e: &mut Encoder) {
        e.put_f64(*self);
    }
    fn decode(d: &mut Decoder<'_>) -> Result<Self, CodecError> {
        d.get_f64()
    }
}

impl Codec for String {
    fn encode(&self, e: &mut Encoder) {
        e.put_str(self);
    }
    fn decode(d: &mut Decoder<'_>) -> Result<Self, CodecError> {
        d.get_str()
    }
}

impl Codec for Duration {
    fn encode(&self, e: &mut Encoder) {
        e.put_u64(self.as_secs());
        e.put_u32(self.subsec_nanos());
    }
    fn decode(d: &mut Decoder<'_>) -> Result<Self, CodecError> {
        let secs = d.get_u64()?;
        let nanos = d.get_u32()?;
        if nanos >= 1_000_000_000 {
            return Err(CodecError::Corrupt(format!("duration nanos {nanos}")));
        }
        Ok(Duration::new(secs, nanos))
    }
}

impl<T: Codec> Codec for Option<T> {
    fn encode(&self, e: &mut Encoder) {
        match self {
            None => e.put_u8(0),
            Some(v) => {
                e.put_u8(1);
                v.encode(e);
            }
        }
    }
    fn decode(d: &mut Decoder<'_>) -> Result<Self, CodecError> {
        match d.get_u8()? {
            0 => Ok(None),
            1 => Ok(Some(T::decode(d)?)),
            t => Err(CodecError::Corrupt(format!("option tag {t:#04x}"))),
        }
    }
}

impl<T: Codec> Codec for Vec<T> {
    fn encode(&self, e: &mut Encoder) {
        e.put_usize(self.len());
        for v in self {
            v.encode(e);
        }
    }
    fn decode(d: &mut Decoder<'_>) -> Result<Self, CodecError> {
        let n = d.get_len(1)?;
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(T::decode(d)?);
        }
        Ok(out)
    }
}

impl<A: Codec, B: Codec> Codec for (A, B) {
    fn encode(&self, e: &mut Encoder) {
        self.0.encode(e);
        self.1.encode(e);
    }
    fn decode(d: &mut Decoder<'_>) -> Result<Self, CodecError> {
        Ok((A::decode(d)?, B::decode(d)?))
    }
}

// ---------------------------------------------------------------------
// Ids, cells, parallelism
// ---------------------------------------------------------------------

macro_rules! id_codec {
    ($($t:ident),*) => {$(
        impl Codec for $t {
            fn encode(&self, e: &mut Encoder) {
                e.put_u32(self.0);
            }
            fn decode(d: &mut Decoder<'_>) -> Result<Self, CodecError> {
                Ok($t(d.get_u32()?))
            }
        }
    )*};
}
id_codec!(NetId, InstanceId, PortId, MacroId);

impl Codec for CellFunction {
    fn encode(&self, e: &mut Encoder) {
        // position in the stable ALL order; fits a byte (24 variants)
        let idx = CellFunction::ALL
            .iter()
            .position(|f| f == self)
            .expect("every function is in ALL");
        e.put_u8(idx as u8);
    }
    fn decode(d: &mut Decoder<'_>) -> Result<Self, CodecError> {
        let idx = usize::from(d.get_u8()?);
        CellFunction::ALL
            .get(idx)
            .copied()
            .ok_or_else(|| CodecError::Corrupt(format!("cell function index {idx}")))
    }
}

impl Codec for Drive {
    fn encode(&self, e: &mut Encoder) {
        let idx = Drive::ALL.iter().position(|x| x == self).expect("in ALL");
        e.put_u8(idx as u8);
    }
    fn decode(d: &mut Decoder<'_>) -> Result<Self, CodecError> {
        let idx = usize::from(d.get_u8()?);
        Drive::ALL
            .get(idx)
            .copied()
            .ok_or_else(|| CodecError::Corrupt(format!("drive index {idx}")))
    }
}

impl Codec for Cell {
    fn encode(&self, e: &mut Encoder) {
        self.function.encode(e);
        self.drive.encode(e);
    }
    fn decode(d: &mut Decoder<'_>) -> Result<Self, CodecError> {
        Ok(Cell { function: CellFunction::decode(d)?, drive: Drive::decode(d)? })
    }
}

impl Codec for Parallelism {
    fn encode(&self, e: &mut Encoder) {
        match self {
            Parallelism::Serial => e.put_u8(0),
            Parallelism::Threads(n) => {
                e.put_u8(1);
                e.put_usize(*n);
            }
            Parallelism::Auto => e.put_u8(2),
        }
    }
    fn decode(d: &mut Decoder<'_>) -> Result<Self, CodecError> {
        match d.get_u8()? {
            0 => Ok(Parallelism::Serial),
            1 => Ok(Parallelism::Threads(d.get_usize()?)),
            2 => Ok(Parallelism::Auto),
            t => Err(CodecError::Corrupt(format!("parallelism tag {t:#04x}"))),
        }
    }
}

// ---------------------------------------------------------------------
// Netlist graph
// ---------------------------------------------------------------------

impl Codec for PortDir {
    fn encode(&self, e: &mut Encoder) {
        e.put_u8(match self {
            PortDir::Input => 0,
            PortDir::Output => 1,
        });
    }
    fn decode(d: &mut Decoder<'_>) -> Result<Self, CodecError> {
        match d.get_u8()? {
            0 => Ok(PortDir::Input),
            1 => Ok(PortDir::Output),
            t => Err(CodecError::Corrupt(format!("port dir tag {t:#04x}"))),
        }
    }
}

impl Codec for Driver {
    fn encode(&self, e: &mut Encoder) {
        match self {
            Driver::Instance(id) => {
                e.put_u8(0);
                id.encode(e);
            }
            Driver::Port(id) => {
                e.put_u8(1);
                id.encode(e);
            }
            Driver::Macro(id, pin) => {
                e.put_u8(2);
                id.encode(e);
                e.put_usize(*pin);
            }
        }
    }
    fn decode(d: &mut Decoder<'_>) -> Result<Self, CodecError> {
        match d.get_u8()? {
            0 => Ok(Driver::Instance(InstanceId::decode(d)?)),
            1 => Ok(Driver::Port(PortId::decode(d)?)),
            2 => Ok(Driver::Macro(MacroId::decode(d)?, d.get_usize()?)),
            t => Err(CodecError::Corrupt(format!("driver tag {t:#04x}"))),
        }
    }
}

impl Codec for Net {
    fn encode(&self, e: &mut Encoder) {
        e.put_str(&self.name);
        self.driver.encode(e);
    }
    fn decode(d: &mut Decoder<'_>) -> Result<Self, CodecError> {
        Ok(Net { name: d.get_str()?, driver: Option::<Driver>::decode(d)? })
    }
}

impl Codec for Instance {
    fn encode(&self, e: &mut Encoder) {
        e.put_str(&self.name);
        self.cell.encode(e);
        self.inputs.encode(e);
        self.output.encode(e);
        self.clock.encode(e);
        e.put_str(&self.block);
        e.put_bool(self.spare);
    }
    fn decode(d: &mut Decoder<'_>) -> Result<Self, CodecError> {
        Ok(Instance {
            name: d.get_str()?,
            cell: Cell::decode(d)?,
            inputs: Vec::<NetId>::decode(d)?,
            output: NetId::decode(d)?,
            clock: Option::<NetId>::decode(d)?,
            block: d.get_str()?,
            spare: d.get_bool()?,
        })
    }
}

impl Codec for Port {
    fn encode(&self, e: &mut Encoder) {
        e.put_str(&self.name);
        self.dir.encode(e);
        self.net.encode(e);
    }
    fn decode(d: &mut Decoder<'_>) -> Result<Self, CodecError> {
        Ok(Port { name: d.get_str()?, dir: PortDir::decode(d)?, net: NetId::decode(d)? })
    }
}

impl Codec for MacroInst {
    fn encode(&self, e: &mut Encoder) {
        e.put_str(&self.name);
        e.put_usize(self.words);
        e.put_usize(self.bits);
        self.inputs.encode(e);
        self.outputs.encode(e);
        e.put_str(&self.block);
    }
    fn decode(d: &mut Decoder<'_>) -> Result<Self, CodecError> {
        Ok(MacroInst {
            name: d.get_str()?,
            words: d.get_usize()?,
            bits: d.get_usize()?,
            inputs: Vec::<NetId>::decode(d)?,
            outputs: Vec::<NetId>::decode(d)?,
            block: d.get_str()?,
        })
    }
}

impl Codec for Netlist {
    fn encode(&self, e: &mut Encoder) {
        e.put_str(&self.name);
        e.put_usize(self.num_nets());
        for (_, n) in self.nets() {
            n.encode(e);
        }
        e.put_usize(self.num_instances());
        for (_, i) in self.instances() {
            i.encode(e);
        }
        e.put_usize(self.num_ports());
        for (_, p) in self.ports() {
            p.encode(e);
        }
        e.put_usize(self.num_macros());
        for (_, m) in self.macros() {
            m.encode(e);
        }
    }

    fn decode(d: &mut Decoder<'_>) -> Result<Self, CodecError> {
        let name = d.get_str()?;
        let nets = Vec::<Net>::decode(d)?;
        let instances = Vec::<Instance>::decode(d)?;
        let ports = Vec::<Port>::decode(d)?;
        let macros = Vec::<MacroInst>::decode(d)?;

        // Rebuild name indexes, refusing duplicates.
        let mut net_names = HashMap::with_capacity(nets.len());
        for (i, n) in nets.iter().enumerate() {
            if net_names.insert(n.name.clone(), NetId(i as u32)).is_some() {
                return Err(CodecError::Corrupt(format!("duplicate net `{}`", n.name)));
            }
        }
        let mut instance_names = HashMap::with_capacity(instances.len());
        for (i, inst) in instances.iter().enumerate() {
            if instance_names.insert(inst.name.clone(), InstanceId(i as u32)).is_some() {
                return Err(CodecError::Corrupt(format!(
                    "duplicate instance `{}`",
                    inst.name
                )));
            }
        }

        // Structural audit: every id in range, pin counts legal, and the
        // recorded per-net drivers exactly match what the instances,
        // ports and macros claim to drive. A file that fails this is
        // corrupt even if it parsed.
        let nid = |id: NetId| -> Result<(), CodecError> {
            if id.index() >= nets.len() {
                return Err(CodecError::Corrupt(format!(
                    "net id {} out of range ({} nets)",
                    id.0,
                    nets.len()
                )));
            }
            Ok(())
        };
        let mut expected: Vec<Option<Driver>> = vec![None; nets.len()];
        let mut claim = |net: NetId, drv: Driver| -> Result<(), CodecError> {
            nid(net)?;
            let slot = &mut expected[net.index()];
            if slot.is_some() {
                return Err(CodecError::Corrupt(format!(
                    "net `{}` driven twice",
                    nets[net.index()].name
                )));
            }
            *slot = Some(drv);
            Ok(())
        };
        for (i, inst) in instances.iter().enumerate() {
            if inst.inputs.len() != inst.cell.function.num_inputs() {
                return Err(CodecError::Corrupt(format!(
                    "instance `{}`: {} inputs for {}",
                    inst.name,
                    inst.inputs.len(),
                    inst.cell.lib_name()
                )));
            }
            for &n in &inst.inputs {
                nid(n)?;
            }
            if let Some(c) = inst.clock {
                nid(c)?;
            }
            claim(inst.output, Driver::Instance(InstanceId(i as u32)))?;
        }
        for (i, p) in ports.iter().enumerate() {
            nid(p.net)?;
            if p.dir == PortDir::Input {
                claim(p.net, Driver::Port(PortId(i as u32)))?;
            }
        }
        for (i, m) in macros.iter().enumerate() {
            for &n in &m.inputs {
                nid(n)?;
            }
            for (pin, &n) in m.outputs.iter().enumerate() {
                claim(n, Driver::Macro(MacroId(i as u32), pin))?;
            }
        }
        for (i, n) in nets.iter().enumerate() {
            if n.driver != expected[i] {
                return Err(CodecError::Corrupt(format!(
                    "net `{}` records driver {:?} but structure implies {:?}",
                    n.name, n.driver, expected[i]
                )));
            }
        }

        Ok(Netlist::from_parts(name, nets, instances, ports, macros, net_names, instance_names))
    }
}

// ---------------------------------------------------------------------
// Technology
// ---------------------------------------------------------------------

impl Codec for TechnologyNode {
    fn encode(&self, e: &mut Encoder) {
        e.put_u8(match self {
            TechnologyNode::Tsmc250 => 0,
            TechnologyNode::Tsmc180 => 1,
            TechnologyNode::Tsmc130 => 2,
        });
    }
    fn decode(d: &mut Decoder<'_>) -> Result<Self, CodecError> {
        match d.get_u8()? {
            0 => Ok(TechnologyNode::Tsmc250),
            1 => Ok(TechnologyNode::Tsmc180),
            2 => Ok(TechnologyNode::Tsmc130),
            t => Err(CodecError::Corrupt(format!("technology node tag {t:#04x}"))),
        }
    }
}

impl Codec for Technology {
    fn encode(&self, e: &mut Encoder) {
        self.node.encode(e);
        for v in [
            self.ge_area_um2,
            self.unit_delay_ns,
            self.load_delay_ns,
            self.wire_delay_ns_per_mm,
            self.setup_ns,
            self.hold_ns,
            self.clk_to_q_ns,
            self.sram_bit_um2,
            self.wafer_diameter_mm,
            self.wafer_cost_usd,
            self.defect_density_per_cm2,
            self.delay_sigma,
        ] {
            e.put_f64(v);
        }
    }
    fn decode(d: &mut Decoder<'_>) -> Result<Self, CodecError> {
        Ok(Technology {
            node: TechnologyNode::decode(d)?,
            ge_area_um2: d.get_f64()?,
            unit_delay_ns: d.get_f64()?,
            load_delay_ns: d.get_f64()?,
            wire_delay_ns_per_mm: d.get_f64()?,
            setup_ns: d.get_f64()?,
            hold_ns: d.get_f64()?,
            clk_to_q_ns: d.get_f64()?,
            sram_bit_um2: d.get_f64()?,
            wafer_diameter_mm: d.get_f64()?,
            wafer_cost_usd: d.get_f64()?,
            defect_density_per_cm2: d.get_f64()?,
            delay_sigma: d.get_f64()?,
        })
    }
}

// ---------------------------------------------------------------------
// Equivalence checking
// ---------------------------------------------------------------------

impl Codec for EquivOptions {
    fn encode(&self, e: &mut Encoder) {
        e.put_usize(self.random_rounds);
        e.put_usize(self.max_support);
        e.put_usize(self.bdd_node_limit);
        e.put_u64(self.seed);
        self.parallelism.encode(e);
    }
    fn decode(d: &mut Decoder<'_>) -> Result<Self, CodecError> {
        Ok(EquivOptions {
            random_rounds: d.get_usize()?,
            max_support: d.get_usize()?,
            bdd_node_limit: d.get_usize()?,
            seed: d.get_u64()?,
            parallelism: Parallelism::decode(d)?,
        })
    }
}

impl Codec for SinkKey {
    fn encode(&self, e: &mut Encoder) {
        match self {
            SinkKey::Port(n) => {
                e.put_u8(0);
                e.put_str(n);
            }
            SinkKey::StateD(n, pin) => {
                e.put_u8(1);
                e.put_str(n);
                e.put_usize(*pin);
            }
            SinkKey::MacroIn(n, pin) => {
                e.put_u8(2);
                e.put_str(n);
                e.put_usize(*pin);
            }
        }
    }
    fn decode(d: &mut Decoder<'_>) -> Result<Self, CodecError> {
        match d.get_u8()? {
            0 => Ok(SinkKey::Port(d.get_str()?)),
            1 => Ok(SinkKey::StateD(d.get_str()?, d.get_usize()?)),
            2 => Ok(SinkKey::MacroIn(d.get_str()?, d.get_usize()?)),
            t => Err(CodecError::Corrupt(format!("sink key tag {t:#04x}"))),
        }
    }
}

impl Codec for EquivVerdict {
    fn encode(&self, e: &mut Encoder) {
        match self {
            EquivVerdict::Equivalent => e.put_u8(0),
            EquivVerdict::ProbablyEquivalent { unproven_cones } => {
                e.put_u8(1);
                e.put_usize(*unproven_cones);
            }
            EquivVerdict::NotEquivalent { sink } => {
                e.put_u8(2);
                sink.encode(e);
            }
            EquivVerdict::InterfaceMismatch { detail } => {
                e.put_u8(3);
                e.put_str(detail);
            }
        }
    }
    fn decode(d: &mut Decoder<'_>) -> Result<Self, CodecError> {
        match d.get_u8()? {
            0 => Ok(EquivVerdict::Equivalent),
            1 => Ok(EquivVerdict::ProbablyEquivalent { unproven_cones: d.get_usize()? }),
            2 => Ok(EquivVerdict::NotEquivalent { sink: SinkKey::decode(d)? }),
            3 => Ok(EquivVerdict::InterfaceMismatch { detail: d.get_str()? }),
            t => Err(CodecError::Corrupt(format!("equiv verdict tag {t:#04x}"))),
        }
    }
}

impl Codec for EquivReport {
    fn encode(&self, e: &mut Encoder) {
        self.verdict.encode(e);
        e.put_usize(self.sinks_compared);
        e.put_usize(self.cones_proven);
        e.put_usize(self.vectors_applied);
    }
    fn decode(d: &mut Decoder<'_>) -> Result<Self, CodecError> {
        Ok(EquivReport {
            verdict: EquivVerdict::decode(d)?,
            sinks_compared: d.get_usize()?,
            cones_proven: d.get_usize()?,
            vectors_applied: d.get_usize()?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate::{ip_block, IpBlockParams};

    fn round_trip<T: Codec + PartialEq + std::fmt::Debug>(v: &T) -> T {
        let mut e = Encoder::new();
        v.encode(&mut e);
        let bytes = e.into_bytes();
        let mut d = Decoder::new(&bytes);
        let back = T::decode(&mut d).expect("decode");
        d.expect_end().expect("fully consumed");
        assert_eq!(&back, v);
        back
    }

    #[test]
    fn primitives_round_trip_bit_exactly() {
        round_trip(&true);
        round_trip(&0xDEu8);
        round_trip(&u32::MAX);
        round_trip(&u64::MAX);
        round_trip(&usize::MAX);
        round_trip(&String::from("π ≠ \u{1F980} \"quoted\"\nnewline\0nul"));
        round_trip(&Duration::new(u64::MAX, 999_999_999));
        round_trip(&Some(vec![(String::from("a"), 1u64), (String::new(), 2)]));
        round_trip(&Option::<u32>::None);
        // f64 bit identity: NaN payload, -0.0, infinities
        for v in [f64::NAN, -0.0, f64::INFINITY, f64::NEG_INFINITY, 1.5e-300] {
            let mut e = Encoder::new();
            v.encode(&mut e);
            let b = e.into_bytes();
            let back = f64::decode(&mut Decoder::new(&b)).unwrap();
            assert_eq!(back.to_bits(), v.to_bits());
        }
    }

    #[test]
    fn bit_packing_round_trips_all_phases() {
        for n in [0usize, 1, 7, 8, 9, 63, 64, 65, 200] {
            let bits: Vec<bool> = (0..n).map(|i| i % 3 == 0).collect();
            let mut e = Encoder::new();
            e.put_bits(&bits);
            // 8x compression plus the length prefix
            assert_eq!(e.len(), 8 + n.div_ceil(8));
            let b = e.into_bytes();
            let mut d = Decoder::new(&b);
            assert_eq!(d.get_bits().unwrap(), bits);
            assert!(d.is_empty());
        }
    }

    #[test]
    fn every_cell_function_and_drive_round_trips() {
        for f in CellFunction::ALL {
            for dr in Drive::ALL {
                round_trip(&Cell::new(f, dr));
            }
        }
        // out-of-range discriminants are corruption, not panics
        let mut d = Decoder::new(&[24u8]);
        assert!(matches!(CellFunction::decode(&mut d), Err(CodecError::Corrupt(_))));
        let mut d = Decoder::new(&[4u8]);
        assert!(matches!(Drive::decode(&mut d), Err(CodecError::Corrupt(_))));
    }

    #[test]
    fn generated_netlist_round_trips_exactly() {
        for seed in [1u64, 42] {
            let nl = ip_block(
                "blk",
                &IpBlockParams { target_gates: 400, seed, ..Default::default() },
            )
            .unwrap();
            let back = round_trip(&nl);
            // the audit actually ran: name lookups work on the decoded copy
            assert_eq!(back.find_instance(&nl.instances().next().unwrap().1.name),
                       Some(nl.instances().next().unwrap().0));
            back.validate().expect("decoded netlist validates");
        }
    }

    #[test]
    fn netlist_driver_mismatch_is_corrupt() {
        // Hand-assemble a stream whose recorded drivers disagree with
        // the structure: net `y` claims to be undriven while instance
        // `u0` drives it. The audit must refuse it.
        let mut e = Encoder::new();
        e.put_str("t");
        vec![
            Net { name: "a".into(), driver: Some(Driver::Port(PortId(0))) },
            Net { name: "y".into(), driver: None }, // lie: u0 drives y
        ]
        .encode(&mut e);
        vec![Instance {
            name: "u0".into(),
            cell: Cell::new(CellFunction::Inv, Drive::X1),
            inputs: vec![NetId(0)],
            output: NetId(1),
            clock: None,
            block: "b".into(),
            spare: false,
        }]
        .encode(&mut e);
        vec![Port { name: "a".into(), dir: PortDir::Input, net: NetId(0) }].encode(&mut e);
        Vec::<MacroInst>::new().encode(&mut e);
        let bytes = e.into_bytes();
        let mut d = Decoder::new(&bytes);
        assert!(matches!(Netlist::decode(&mut d), Err(CodecError::Corrupt(_))));
    }

    #[test]
    fn netlist_duplicate_names_are_corrupt() {
        let mut e = Encoder::new();
        e.put_str("t");
        vec![
            Net { name: "same".into(), driver: None },
            Net { name: "same".into(), driver: None },
        ]
        .encode(&mut e);
        Vec::<Instance>::new().encode(&mut e);
        Vec::<Port>::new().encode(&mut e);
        Vec::<MacroInst>::new().encode(&mut e);
        let bytes = e.into_bytes();
        let mut d = Decoder::new(&bytes);
        assert!(matches!(Netlist::decode(&mut d), Err(CodecError::Corrupt(_))));
    }

    #[test]
    fn truncated_prefixes_error_without_panicking() {
        let nl = ip_block(
            "blk",
            &IpBlockParams { target_gates: 120, seed: 3, ..Default::default() },
        )
        .unwrap();
        let mut e = Encoder::new();
        nl.encode(&mut e);
        let bytes = e.into_bytes();
        for cut in 0..bytes.len() {
            let mut d = Decoder::new(&bytes[..cut]);
            assert!(
                Netlist::decode(&mut d).is_err(),
                "prefix of {cut}/{} bytes decoded",
                bytes.len()
            );
        }
    }

    #[test]
    fn corrupt_length_cannot_allocate_past_the_buffer() {
        // a length prefix of u64::MAX must error before allocating
        let mut e = Encoder::new();
        e.put_u64(u64::MAX);
        let b = e.into_bytes();
        let mut d = Decoder::new(&b);
        assert!(Vec::<u64>::decode(&mut d).is_err());
    }

    #[test]
    fn equiv_and_tech_round_trip() {
        round_trip(&EquivReport {
            verdict: EquivVerdict::NotEquivalent {
                sink: SinkKey::StateD("u_ff/∂".into(), 3),
            },
            sinks_compared: 10,
            cones_proven: 4,
            vectors_applied: 640,
        });
        round_trip(&EquivVerdict::ProbablyEquivalent { unproven_cones: 2 });
        round_trip(&EquivVerdict::InterfaceMismatch { detail: "π mismatch".into() });
        round_trip(&Technology::default());
        round_trip(&Technology::node(TechnologyNode::Tsmc130));
        for p in [Parallelism::Serial, Parallelism::Threads(7), Parallelism::Auto] {
            let mut e = Encoder::new();
            p.encode(&mut e);
            let b = e.into_bytes();
            assert_eq!(Parallelism::decode(&mut Decoder::new(&b)).unwrap(), p);
        }
    }
}
