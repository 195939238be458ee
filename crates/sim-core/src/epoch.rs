//! Cold state in O(1): epoch-stamped storage, recycled per thread.
//!
//! Every replay starts from flushed caches, TLB and BTB (§3.6). A cache's
//! lines, a BTB's entries and a TLB's bucket heads live in a [`Store`],
//! and each entry carries the epoch it was written in. **An entry is valid
//! only while its epoch equals its store's**, so invalidating everything
//! is one increment of the store's epoch. The store's epoch starts at 1
//! and every entry's epoch is at most the store's. When the `u32` count
//! would wrap, every entry is rewritten to [`Entry::COLD`] (epoch 0, which
//! no store ever holds) and the count restarts at 1, so a stale entry can
//! never turn valid again. A TLB's slots live in a store too, for its
//! recycling only: they carry no epoch, and the TLB counts the valid ones.
//!
//! Dropping a store hands its storage and final epoch to a small spare
//! kept per thread: at most [`Entry::SPARES`] storages of each entry type,
//! a core's three caches, one TLB and one BTB (about 134 KiB with the
//! default geometry). The next store of the same length built on that
//! thread takes the storage it got last and starts one epoch later, so a
//! cold cache is built without allocating or writing its lines. Every
//! stale entry is invalid by the rule above, and no outcome reads anything
//! of an invalid entry but its epoch, so recycled storage behaves exactly
//! as fresh storage does.

use std::cell::RefCell;
use std::ops::{Deref, DerefMut};
use std::thread::LocalKey;

/// One thread's spare storages of one entry type, each with the epoch it
/// was dropped in, oldest first.
pub(crate) type Spare<T> = RefCell<Vec<(Vec<T>, u32)>>;

/// An epoch-stamped entry of a [`Store`].
pub(crate) trait Entry: Copy + 'static {
    /// An entry of epoch 0, invalid in every store; for an entry that
    /// carries no epoch, the value a wrap's rewrite leaves.
    const COLD: Self;
    /// The storages of this type a thread keeps spare.
    const SPARES: usize;
    /// This thread's spare storages of this type.
    fn spare() -> &'static LocalKey<Spare<Self>>;
}

/// A fixed-length run of epoch-stamped entries; see the [module docs](self).
#[derive(Debug, Clone)]
pub(crate) struct Store<T: Entry> {
    entries: Vec<T>,
    epoch: u32,
}

impl<T: Entry> Store<T> {
    /// `len` invalid entries: this thread's spare storage of that length,
    /// one epoch on, or else a new allocation.
    pub(crate) fn new(len: usize) -> Self {
        let spare = T::spare()
            .try_with(|spare| {
                let mut spare = spare.borrow_mut();
                let at = spare
                    .iter()
                    .rposition(|(entries, _)| entries.len() == len)?;
                Some(spare.remove(at))
            })
            .ok()
            .flatten();
        match spare {
            Some((entries, epoch)) => {
                let mut store = Store { entries, epoch };
                store.invalidate();
                store
            }
            None => Store {
                entries: vec![T::COLD; len],
                epoch: 1,
            },
        }
    }

    /// The current epoch: the one a valid entry carries.
    #[inline]
    pub(crate) fn epoch(&self) -> u32 {
        self.epoch
    }

    /// Invalidate every entry: the next epoch, rewriting the entries only
    /// when the count wraps.
    pub(crate) fn invalidate(&mut self) {
        if self.epoch == u32::MAX {
            self.entries.fill(T::COLD);
            self.epoch = 1;
        } else {
            self.epoch += 1;
        }
    }

    /// Make this store cold storage of epoch `epoch`, as if it had been
    /// invalidated `epoch - 1` times since its allocation.
    #[cfg(test)]
    pub(crate) fn restart_at(&mut self, epoch: u32) {
        assert!(epoch > 0, "epoch 0 is the cold entries' epoch");
        self.entries.fill(T::COLD);
        self.epoch = epoch;
    }
}

impl<T: Entry> Deref for Store<T> {
    type Target = [T];

    #[inline]
    fn deref(&self) -> &[T] {
        &self.entries
    }
}

impl<T: Entry> DerefMut for Store<T> {
    #[inline]
    fn deref_mut(&mut self) -> &mut [T] {
        &mut self.entries
    }
}

impl<T: Entry> Drop for Store<T> {
    fn drop(&mut self) {
        let entries = std::mem::take(&mut self.entries);
        let epoch = self.epoch;
        // A thread tearing down its locals frees the storage instead; a
        // drop never panics.
        let _ = T::spare().try_with(|spare| {
            let Ok(mut spare) = spare.try_borrow_mut() else {
                return;
            };
            if spare.len() == T::SPARES {
                spare.remove(0);
            }
            spare.push((entries, epoch));
        });
    }
}
