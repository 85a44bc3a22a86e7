//! Page protection bits as used by guest page tables, shadow page tables and
//! AikidoVM's per-thread protection tables.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::ops::{BitAnd, BitOr};

use crate::AccessKind;

/// Page protection: the three bits the paper's hypervisor manipulates —
/// *present* (readable), *writable* and *user accessible*.
///
/// `Prot` values combine with `|` and intersect with `&`; the most common
/// configurations are provided as constants.
///
/// # Examples
///
/// ```
/// use aikido_types::{AccessKind, Prot};
///
/// let p = Prot::READ | Prot::USER;
/// assert!(p.allows(AccessKind::Read));
/// assert!(!p.allows(AccessKind::Write));
/// assert!(p.user());
/// ```
#[derive(Copy, Clone, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub struct Prot {
    bits: u8,
}

impl Prot {
    const READ_BIT: u8 = 0b001;
    const WRITE_BIT: u8 = 0b010;
    const USER_BIT: u8 = 0b100;

    /// No access at all (page not present).
    pub const NONE: Prot = Prot { bits: 0 };
    /// Present / readable.
    pub const READ: Prot = Prot {
        bits: Self::READ_BIT,
    };
    /// Writable (implies nothing about present; combine with [`Prot::READ`]).
    pub const WRITE: Prot = Prot {
        bits: Self::WRITE_BIT,
    };
    /// Userspace accessible.
    pub const USER: Prot = Prot {
        bits: Self::USER_BIT,
    };
    /// Read + write + user: the normal protection of an application data page.
    pub const RW_USER: Prot = Prot {
        bits: Self::READ_BIT | Self::WRITE_BIT | Self::USER_BIT,
    };
    /// Read + user (e.g. code or read-only data).
    pub const R_USER: Prot = Prot {
        bits: Self::READ_BIT | Self::USER_BIT,
    };
    /// Read + write but **not** user accessible — the protection AikidoVM uses
    /// when it temporarily unprotects a page for the guest kernel (§3.2.6).
    pub const RW_KERNEL: Prot = Prot {
        bits: Self::READ_BIT | Self::WRITE_BIT,
    };

    /// Builds a protection value from individual bits.
    pub const fn from_bits(read: bool, write: bool, user: bool) -> Self {
        let mut bits = 0;
        if read {
            bits |= Self::READ_BIT;
        }
        if write {
            bits |= Self::WRITE_BIT;
        }
        if user {
            bits |= Self::USER_BIT;
        }
        Prot { bits }
    }

    /// True if the page is present (readable).
    pub const fn read(self) -> bool {
        self.bits & Self::READ_BIT != 0
    }

    /// True if the page is writable.
    pub const fn write(self) -> bool {
        self.bits & Self::WRITE_BIT != 0
    }

    /// True if the page is accessible from user mode.
    pub const fn user(self) -> bool {
        self.bits & Self::USER_BIT != 0
    }

    /// Returns this protection with the user bit cleared (kernel-only).
    pub const fn without_user(self) -> Self {
        Prot {
            bits: self.bits & !Self::USER_BIT,
        }
    }

    /// Returns this protection with the write bit cleared.
    pub const fn without_write(self) -> Self {
        Prot {
            bits: self.bits & !Self::WRITE_BIT,
        }
    }

    /// True if a userspace access of kind `kind` is permitted.
    pub const fn allows(self, kind: AccessKind) -> bool {
        match kind {
            AccessKind::Read => self.read(),
            AccessKind::Write => self.read() && self.write(),
        }
    }

    /// True if a *kernel* (supervisor) access of kind `kind` is permitted;
    /// the user bit is ignored.
    pub const fn allows_kernel(self, kind: AccessKind) -> bool {
        self.allows(kind)
    }

    /// True if a userspace access of kind `kind` is permitted, also requiring
    /// the user bit.
    ///
    /// The same truth table as `self.user() && self.allows(kind)`, written
    /// as one mask compare: it runs on every software-TLB probe, where the
    /// short-circuit form compiles to a chain of branches.
    #[inline]
    pub const fn allows_user(self, kind: AccessKind) -> bool {
        let need = Self::READ_BIT | Self::USER_BIT | ((kind.is_write() as u8) * Self::WRITE_BIT);
        self.bits & need == need
    }

    /// The intersection of two protections: an access is allowed only if both
    /// allow it. This is how a per-thread protection table entry restricts the
    /// guest page-table protection.
    pub const fn intersect(self, other: Prot) -> Prot {
        Prot {
            bits: self.bits & other.bits,
        }
    }
}

impl BitOr for Prot {
    type Output = Prot;
    fn bitor(self, rhs: Prot) -> Prot {
        Prot {
            bits: self.bits | rhs.bits,
        }
    }
}

impl BitAnd for Prot {
    type Output = Prot;
    fn bitand(self, rhs: Prot) -> Prot {
        self.intersect(rhs)
    }
}

impl fmt::Debug for Prot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Prot({}{}{})",
            if self.read() { "r" } else { "-" },
            if self.write() { "w" } else { "-" },
            if self.user() { "u" } else { "-" }
        )
    }
}

impl fmt::Display for Prot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}{}{}",
            if self.read() { "r" } else { "-" },
            if self.write() { "w" } else { "-" },
            if self.user() { "u" } else { "-" }
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rw_user_allows_everything_from_user() {
        assert!(Prot::RW_USER.allows_user(AccessKind::Read));
        assert!(Prot::RW_USER.allows_user(AccessKind::Write));
    }

    #[test]
    fn none_blocks_everything() {
        assert!(!Prot::NONE.allows(AccessKind::Read));
        assert!(!Prot::NONE.allows(AccessKind::Write));
        assert!(!Prot::NONE.allows_user(AccessKind::Read));
    }

    #[test]
    fn read_only_blocks_writes() {
        let p = Prot::R_USER;
        assert!(p.allows_user(AccessKind::Read));
        assert!(!p.allows_user(AccessKind::Write));
    }

    #[test]
    fn allows_user_mask_matches_its_definition_on_every_bit_pattern() {
        for bits in 0..8u8 {
            let p = Prot { bits };
            for kind in [AccessKind::Read, AccessKind::Write] {
                assert_eq!(
                    p.allows_user(kind),
                    p.user() && p.allows(kind),
                    "{p:?}, {kind:?}"
                );
            }
        }
    }

    #[test]
    fn kernel_only_page_blocks_user_but_not_kernel() {
        let p = Prot::RW_KERNEL;
        assert!(!p.allows_user(AccessKind::Read));
        assert!(!p.allows_user(AccessKind::Write));
        assert!(p.allows_kernel(AccessKind::Read));
        assert!(p.allows_kernel(AccessKind::Write));
    }

    #[test]
    fn intersect_is_commutative_and_restrictive() {
        let a = Prot::RW_USER;
        let b = Prot::R_USER;
        assert_eq!(a.intersect(b), b.intersect(a));
        assert_eq!(a & b, Prot::R_USER);
        assert_eq!(a & Prot::NONE, Prot::NONE);
    }

    #[test]
    fn without_user_clears_only_user() {
        let p = Prot::RW_USER.without_user();
        assert!(p.read() && p.write() && !p.user());
        assert_eq!(p, Prot::RW_KERNEL);
    }

    #[test]
    fn display_is_stable() {
        assert_eq!(Prot::RW_USER.to_string(), "rwu");
        assert_eq!(Prot::NONE.to_string(), "---");
        assert_eq!(format!("{:?}", Prot::R_USER), "Prot(r-u)");
    }

    #[test]
    fn from_bits_roundtrip() {
        for &(r, w, u) in &[
            (false, false, false),
            (true, false, false),
            (true, true, false),
            (true, true, true),
            (false, true, true),
        ] {
            let p = Prot::from_bits(r, w, u);
            assert_eq!(p.read(), r);
            assert_eq!(p.write(), w);
            assert_eq!(p.user(), u);
        }
    }
}
