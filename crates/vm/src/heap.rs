//! The VM heap: objects, arrays, strings, and the mark-sweep collector.
//!
//! The paper's JVM "performs its own memory management via garbage
//! collection; garbage collection is not a source of time noise, as long as
//! it is itself deterministic" (§3.6). This heap is deterministic by
//! construction: allocation is first-fit over an address-ordered free list
//! plus a bump pointer, and collection order is handle order. Every object
//! has a *simulated address* so that field/element accesses produce real
//! cache traffic in the timing model.

use jbc::ClassId;
use serde::{Deserialize, Serialize};

use crate::value::{Handle, Value, NULL};

/// Payload of one heap cell.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum HeapObj {
    /// A class instance with its field slots.
    Obj {
        /// Runtime class.
        class: ClassId,
        /// Field slots, in layout order (inherited first).
        fields: Vec<Value>,
    },
    /// `byte[]`.
    ArrI8(Vec<i8>),
    /// `char[]`.
    ArrU16(Vec<u16>),
    /// `int[]`.
    ArrI32(Vec<i32>),
    /// `long[]`.
    ArrI64(Vec<i64>),
    /// `double[]`.
    ArrF64(Vec<f64>),
    /// `ref[]`.
    ArrRef(Vec<Handle>),
    /// An interned string constant.
    Str(String),
}

impl HeapObj {
    /// Length if this is an array.
    pub fn array_len(&self) -> Option<usize> {
        match self {
            HeapObj::ArrI8(v) => Some(v.len()),
            HeapObj::ArrU16(v) => Some(v.len()),
            HeapObj::ArrI32(v) => Some(v.len()),
            HeapObj::ArrI64(v) => Some(v.len()),
            HeapObj::ArrF64(v) => Some(v.len()),
            HeapObj::ArrRef(v) => Some(v.len()),
            _ => None,
        }
    }

    /// Payload size in simulated bytes (excluding the 16-byte header).
    pub fn byte_size(&self) -> u64 {
        match self {
            HeapObj::Obj { fields, .. } => fields.len() as u64 * 8,
            HeapObj::ArrI8(v) => v.len() as u64,
            HeapObj::ArrU16(v) => v.len() as u64 * 2,
            HeapObj::ArrI32(v) => v.len() as u64 * 4,
            HeapObj::ArrI64(v) => v.len() as u64 * 8,
            HeapObj::ArrF64(v) => v.len() as u64 * 8,
            HeapObj::ArrRef(v) => v.len() as u64 * 8,
            HeapObj::Str(s) => s.len() as u64,
        }
    }
}

#[derive(Debug, Clone, Serialize, Deserialize)]
struct Cell {
    obj: HeapObj,
    /// Simulated base address of the 16-byte header.
    vaddr: u64,
    /// Allocated size including header (for the free list).
    size: u64,
    marked: bool,
    live: bool,
}

/// Statistics of one collection.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct GcStats {
    /// Objects that survived.
    pub live: u64,
    /// Objects reclaimed.
    pub freed: u64,
    /// Bytes reclaimed.
    pub freed_bytes: u64,
}

/// The heap. See the [module docs](self).
#[derive(Debug)]
pub struct Heap {
    cells: Vec<Option<Cell>>,
    /// Reusable handle slots (kept sorted for determinism).
    free_handles: Vec<Handle>,
    /// Address-ordered free list of `(vaddr, size)` holes.
    free_list: Vec<(u64, u64)>,
    limit: u64,
    bump: u64,
    allocated_bytes: u64,
}

/// Size of the simulated object header.
const HEADER: u64 = 16;

impl Heap {
    /// Create a heap covering `[base, base + size)` simulated bytes.
    pub fn new(base: u64, size: u64) -> Self {
        Heap {
            cells: vec![None], // Handle 0 is reserved for null.
            free_handles: Vec::new(),
            free_list: Vec::new(),
            limit: base + size,
            bump: base,
            allocated_bytes: 0,
        }
    }

    /// Bytes currently allocated (including headers).
    pub fn allocated_bytes(&self) -> u64 {
        self.allocated_bytes
    }

    fn aligned(n: u64) -> u64 {
        (n + 15) & !15
    }

    fn find_space(&mut self, need: u64) -> Option<u64> {
        // First fit in the free list.
        if let Some(i) = self.free_list.iter().position(|&(_, sz)| sz >= need) {
            let (addr, sz) = self.free_list[i];
            if sz == need {
                self.free_list.remove(i);
            } else {
                self.free_list[i] = (addr + need, sz - need);
            }
            return Some(addr);
        }
        // Bump.
        if self.bump + need <= self.limit {
            let addr = self.bump;
            self.bump += need;
            return Some(addr);
        }
        None
    }

    /// Allocate an object; returns `None` when out of memory (caller runs a
    /// GC and retries).
    pub fn alloc(&mut self, obj: HeapObj) -> Option<(Handle, u64)> {
        let need = Self::aligned(obj.byte_size() + HEADER);
        let addr = self.find_space(need)?;
        self.allocated_bytes += need;
        let cell = Cell {
            obj,
            vaddr: addr,
            size: need,
            marked: false,
            live: true,
        };
        let h = match self.free_handles.pop() {
            Some(h) => {
                self.cells[h as usize] = Some(cell);
                h
            }
            None => {
                self.cells.push(Some(cell));
                (self.cells.len() - 1) as Handle
            }
        };
        Some((h, addr))
    }

    /// Borrow an object.
    ///
    /// # Panics
    ///
    /// Panics on null/dangling handles — the interpreter performs the null
    /// check (raising the in-program exception) before calling this.
    pub fn get(&self, h: Handle) -> &HeapObj {
        &self.cells[h as usize]
            .as_ref()
            .expect("dangling handle")
            .obj
    }

    /// Borrow an object mutably. Same contract as [`get`](Self::get).
    pub fn get_mut(&mut self, h: Handle) -> &mut HeapObj {
        &mut self.cells[h as usize]
            .as_mut()
            .expect("dangling handle")
            .obj
    }

    /// Simulated base address of the object's payload.
    pub fn payload_addr(&self, h: Handle) -> u64 {
        self.cells[h as usize]
            .as_ref()
            .expect("dangling handle")
            .vaddr
            + HEADER
    }

    /// Simulated address of the object header.
    pub fn header_addr(&self, h: Handle) -> u64 {
        self.cells[h as usize]
            .as_ref()
            .expect("dangling handle")
            .vaddr
    }

    /// True if the handle refers to a live object.
    pub fn is_live(&self, h: Handle) -> bool {
        h != NULL
            && (h as usize) < self.cells.len()
            && self.cells[h as usize].as_ref().is_some_and(|c| c.live)
    }

    /// Mark-sweep collection from the given roots. Returns statistics; the
    /// caller converts them into deterministic cycle costs.
    pub fn collect(&mut self, roots: impl Iterator<Item = Handle>) -> GcStats {
        // Mark (explicit stack; handle order keeps it deterministic).
        let mut stack: Vec<Handle> = roots.filter(|&h| self.is_live(h)).collect();
        while let Some(h) = stack.pop() {
            let cell = match self.cells[h as usize].as_mut() {
                Some(c) if c.live && !c.marked => c,
                _ => continue,
            };
            cell.marked = true;
            match &cell.obj {
                HeapObj::Obj { fields, .. } => {
                    for v in fields {
                        if let Value::Ref(r) = v {
                            if *r != NULL {
                                stack.push(*r);
                            }
                        }
                    }
                }
                HeapObj::ArrRef(rs) => {
                    for &r in rs {
                        if r != NULL {
                            stack.push(r);
                        }
                    }
                }
                _ => {}
            }
        }
        // Sweep in handle order.
        let mut stats = GcStats::default();
        for (i, slot) in self.cells.iter_mut().enumerate().skip(1) {
            let Some(cell) = slot.as_mut() else { continue };
            if !cell.live {
                continue;
            }
            if cell.marked {
                cell.marked = false;
                stats.live += 1;
            } else {
                stats.freed += 1;
                stats.freed_bytes += cell.size;
                self.allocated_bytes -= cell.size;
                self.free_list.push((cell.vaddr, cell.size));
                *slot = None;
                self.free_handles.push(i as Handle);
            }
        }
        // Keep free structures deterministic and coalesced.
        self.free_handles.sort_unstable_by(|a, b| b.cmp(a));
        self.free_list.sort_unstable();
        let mut merged: Vec<(u64, u64)> = Vec::with_capacity(self.free_list.len());
        for &(addr, size) in &self.free_list {
            match merged.last_mut() {
                Some((la, ls)) if *la + *ls == addr => *ls += size,
                _ => merged.push((addr, size)),
            }
        }
        // Give back a trailing hole to the bump region.
        if let Some(&(la, ls)) = merged.last() {
            if la + ls == self.bump {
                self.bump = la;
                merged.pop();
            }
        }
        self.free_list = merged;
        stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn heap() -> Heap {
        Heap::new(0x1000, 1 << 20)
    }

    #[test]
    fn alloc_returns_distinct_handles_and_addresses() {
        let mut h = heap();
        let (h1, a1) = h.alloc(HeapObj::ArrI32(vec![0; 4])).expect("fits");
        let (h2, a2) = h.alloc(HeapObj::ArrI32(vec![0; 4])).expect("fits");
        assert_ne!(h1, h2);
        assert_ne!(a1, a2);
        assert_ne!(h1, NULL, "null handle never allocated");
    }

    #[test]
    fn payload_addr_is_past_header() {
        let mut h = heap();
        let (r, addr) = h.alloc(HeapObj::ArrI64(vec![0; 2])).expect("fits");
        assert_eq!(h.payload_addr(r), addr + 16);
        assert_eq!(h.header_addr(r), addr);
    }

    #[test]
    fn oom_returns_none() {
        let mut h = Heap::new(0, 64);
        assert!(h.alloc(HeapObj::ArrI8(vec![0; 1000])).is_none());
    }

    #[test]
    fn gc_frees_unreachable_and_reuses_space() {
        let mut h = Heap::new(0, 4096);
        let (keep, _) = h.alloc(HeapObj::ArrI32(vec![1; 16])).expect("fits");
        let mut garbage = Vec::new();
        while let Some((g, _)) = h.alloc(HeapObj::ArrI32(vec![2; 16])) {
            garbage.push(g);
        }
        let before = h.allocated_bytes();
        let stats = h.collect([keep].into_iter());
        assert_eq!(stats.live, 1);
        assert!(stats.freed as usize >= garbage.len() - 1);
        assert!(h.allocated_bytes() < before);
        // Space is reusable now.
        assert!(h.alloc(HeapObj::ArrI32(vec![3; 16])).is_some());
        assert!(h.is_live(keep));
    }

    #[test]
    fn gc_traces_through_objects_and_ref_arrays() {
        let mut h = heap();
        let (leaf, _) = h.alloc(HeapObj::ArrI32(vec![7])).expect("fits");
        let (arr, _) = h.alloc(HeapObj::ArrRef(vec![leaf, NULL])).expect("fits");
        let (obj, _) = h
            .alloc(HeapObj::Obj {
                class: ClassId(0),
                fields: vec![Value::Ref(arr), Value::I32(5)],
            })
            .expect("fits");
        let stats = h.collect([obj].into_iter());
        assert_eq!(stats.live, 3, "obj -> arr -> leaf all survive");
        assert!(h.is_live(leaf));
    }

    #[test]
    fn gc_is_deterministic() {
        let build = || {
            let mut h = Heap::new(0, 1 << 16);
            let mut keep = Vec::new();
            for k in 0..100 {
                let (r, _) = h.alloc(HeapObj::ArrI32(vec![k; 8])).expect("fits");
                if k % 3 == 0 {
                    keep.push(r);
                }
            }
            let stats = h.collect(keep.iter().copied());
            // Allocate again and record the addresses.
            let mut addrs = Vec::new();
            for k in 0..20 {
                let (_, a) = h.alloc(HeapObj::ArrI8(vec![0; k + 1])).expect("fits");
                addrs.push(a);
            }
            (stats, addrs)
        };
        assert_eq!(build(), build());
    }

    #[test]
    fn handle_reuse_after_gc() {
        let mut h = heap();
        let (dead, _) = h.alloc(HeapObj::ArrI8(vec![0; 8])).expect("fits");
        h.collect(std::iter::empty());
        assert!(!h.is_live(dead));
        let (fresh, _) = h.alloc(HeapObj::ArrI8(vec![0; 8])).expect("fits");
        assert_eq!(fresh, dead, "handle slot is recycled deterministically");
    }

    #[test]
    fn array_len_and_sizes() {
        assert_eq!(HeapObj::ArrU16(vec![0; 3]).array_len(), Some(3));
        assert_eq!(HeapObj::ArrU16(vec![0; 3]).byte_size(), 6);
        assert_eq!(
            HeapObj::Obj {
                class: ClassId(0),
                fields: vec![Value::I32(0); 2]
            }
            .array_len(),
            None
        );
    }
}
