//! Memory and synchronisation operations as they appear in workload traces
//! and flow through the DBI engine into analyses.

use serde::{Deserialize, Serialize};
use std::fmt;

use crate::{Addr, InstrId, LockId, ThreadId};

/// Whether a memory access reads or writes.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug, Serialize, Deserialize)]
pub enum AccessKind {
    /// A load.
    Read,
    /// A store.
    Write,
}

impl AccessKind {
    /// True for [`AccessKind::Write`].
    pub const fn is_write(self) -> bool {
        matches!(self, AccessKind::Write)
    }
}

impl fmt::Display for AccessKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AccessKind::Read => write!(f, "read"),
            AccessKind::Write => write!(f, "write"),
        }
    }
}

/// Addressing mode of a memory instruction.
///
/// The distinction matters to AikidoSD's rewriting strategy (§3.3.2): a
/// *direct* instruction embeds an immediate effective address and can be
/// patched to point at the mirror page; an *indirect* instruction computes its
/// address from a register and therefore needs a translation sequence plus a
/// dynamic shared/private check, because it may touch different pages on
/// different executions.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug, Serialize, Deserialize)]
pub enum AddrMode {
    /// Effective address is an immediate in the instruction encoding.
    Direct,
    /// Effective address is computed from a base register at run time.
    Indirect,
}

impl AddrMode {
    /// True for [`AddrMode::Indirect`].
    pub const fn is_indirect(self) -> bool {
        matches!(self, AddrMode::Indirect)
    }
}

/// A single dynamic memory reference: the static instruction that performed
/// it, the effective address, the access kind, size and addressing mode.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug, Serialize, Deserialize)]
pub struct MemRef {
    /// Static instruction performing the access.
    pub instr: InstrId,
    /// Effective virtual address.
    pub addr: Addr,
    /// Read or write.
    pub kind: AccessKind,
    /// Access size in bytes (1, 2, 4 or 8).
    pub size: u8,
    /// Direct or indirect addressing.
    pub mode: AddrMode,
}

impl MemRef {
    /// Convenience constructor for an 8-byte access.
    pub const fn new(instr: InstrId, addr: Addr, kind: AccessKind, mode: AddrMode) -> Self {
        MemRef {
            instr,
            addr,
            kind,
            size: 8,
            mode,
        }
    }

    /// Returns the same reference with a different size.
    pub const fn with_size(mut self, size: u8) -> Self {
        self.size = size;
        self
    }
}

impl fmt::Display for MemRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} {} bytes at {} by {}",
            self.kind, self.size, self.addr, self.instr
        )
    }
}

/// A synchronisation operation observed in the target application.
///
/// These are always visible to a shared data analysis (the paper's race
/// detector instruments the pthread wrappers regardless of page sharing).
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug, Serialize, Deserialize)]
pub enum SyncOp {
    /// Acquire (lock) a mutex.
    Acquire(LockId),
    /// Release (unlock) a mutex.
    Release(LockId),
    /// Spawn a new thread; the payload is the child's id.
    Fork(ThreadId),
    /// Join a finished thread; the payload is the joined thread's id.
    Join(ThreadId),
    /// Arrive at a named barrier shared by all threads of the workload.
    Barrier(u32),
}

impl fmt::Display for SyncOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SyncOp::Acquire(l) => write!(f, "acquire {l}"),
            SyncOp::Release(l) => write!(f, "release {l}"),
            SyncOp::Fork(t) => write!(f, "fork {t}"),
            SyncOp::Join(t) => write!(f, "join {t}"),
            SyncOp::Barrier(b) => write!(f, "barrier {b}"),
        }
    }
}

/// One operation in a thread's instruction stream.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug, Serialize, Deserialize)]
pub enum Operation {
    /// A memory access.
    Mem(MemRef),
    /// `count` purely register-to-register (ALU / branch) instructions; they
    /// contribute native cycles but never touch memory.
    Compute {
        /// Number of non-memory instructions represented.
        count: u32,
    },
    /// A synchronisation operation.
    Sync(SyncOp),
    /// The thread finishes execution.
    Exit,
}

impl Operation {
    /// True if this operation is a memory access.
    pub const fn is_mem(&self) -> bool {
        matches!(self, Operation::Mem(_))
    }

    /// The memory reference, if this is a memory operation.
    pub const fn as_mem(&self) -> Option<&MemRef> {
        match self {
            Operation::Mem(m) => Some(m),
            _ => None,
        }
    }

    /// Number of dynamic instructions this operation represents.
    pub const fn instruction_count(&self) -> u64 {
        match self {
            Operation::Mem(_) | Operation::Sync(_) | Operation::Exit => 1,
            Operation::Compute { count } => *count as u64,
        }
    }
}

impl fmt::Display for Operation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Operation::Mem(m) => write!(f, "{m}"),
            Operation::Compute { count } => write!(f, "{count} compute instrs"),
            Operation::Sync(s) => write!(f, "{s}"),
            Operation::Exit => write!(f, "exit"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::BlockId;

    fn instr() -> InstrId {
        InstrId::new(BlockId::new(1), 0)
    }

    #[test]
    fn memref_constructors() {
        let m = MemRef::new(
            instr(),
            Addr::new(0x100),
            AccessKind::Write,
            AddrMode::Direct,
        );
        assert_eq!(m.size, 8);
        assert_eq!(m.with_size(4).size, 4);
        assert!(m.kind.is_write());
        assert!(!m.mode.is_indirect());
    }

    #[test]
    fn operation_instruction_counts() {
        assert_eq!(
            Operation::Mem(MemRef::new(
                instr(),
                Addr::new(0),
                AccessKind::Read,
                AddrMode::Indirect
            ))
            .instruction_count(),
            1
        );
        assert_eq!(Operation::Compute { count: 17 }.instruction_count(), 17);
        assert_eq!(
            Operation::Sync(SyncOp::Acquire(LockId::new(1))).instruction_count(),
            1
        );
        assert_eq!(Operation::Exit.instruction_count(), 1);
    }

    #[test]
    fn as_mem_filters_non_memory_operations() {
        let mem = Operation::Mem(MemRef::new(
            instr(),
            Addr::new(64),
            AccessKind::Read,
            AddrMode::Direct,
        ));
        assert!(mem.as_mem().is_some());
        assert!(mem.is_mem());
        assert!(Operation::Compute { count: 1 }.as_mem().is_none());
        assert!(Operation::Exit.as_mem().is_none());
    }

    #[test]
    fn sync_and_operation_display() {
        assert_eq!(
            SyncOp::Acquire(LockId::new(3)).to_string(),
            "acquire lock 3"
        );
        assert_eq!(SyncOp::Barrier(2).to_string(), "barrier 2");
        assert_eq!(
            Operation::Compute { count: 5 }.to_string(),
            "5 compute instrs"
        );
    }
}
