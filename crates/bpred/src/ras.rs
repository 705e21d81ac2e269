//! Return address stack.

/// A circular return-address stack (Table 1: 64 entries).
///
/// Overflow wraps and silently overwrites the oldest entry; underflow
/// returns `None` (the front end then falls back to a not-taken fetch and
/// relies on the back end to redirect).
#[derive(Clone, Debug)]
pub struct Ras {
    entries: Vec<u64>,
    top: usize,
    depth: usize,
}

impl Ras {
    /// Creates a RAS with `capacity` entries.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "RAS capacity must be positive");
        Ras {
            entries: vec![0; capacity],
            top: 0,
            depth: 0,
        }
    }

    /// The paper's 64-entry configuration.
    pub fn table1_default() -> Self {
        Ras::new(64)
    }

    /// Pushes a return address (on a call).
    pub fn push(&mut self, addr: u64) {
        self.top = (self.top + 1) % self.entries.len();
        self.entries[self.top] = addr;
        if self.depth < self.entries.len() {
            self.depth += 1;
        }
    }

    /// Pops the predicted return address (on a return).
    pub fn pop(&mut self) -> Option<u64> {
        if self.depth == 0 {
            return None;
        }
        let addr = self.entries[self.top];
        self.top = (self.top + self.entries.len() - 1) % self.entries.len();
        self.depth -= 1;
        Some(addr)
    }

    /// Resets to power-on state (all entries zero, empty) without
    /// reallocating — used by the front end's misprediction flush, which
    /// rebuilds the RAS from the restored call stack every redirect.
    pub fn clear(&mut self) {
        self.entries.fill(0);
        self.top = 0;
        self.depth = 0;
    }

    /// Current number of live entries.
    pub fn depth(&self) -> usize {
        self.depth
    }

    /// Capacity.
    pub fn capacity(&self) -> usize {
        self.entries.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lifo_order() {
        let mut ras = Ras::new(8);
        ras.push(1);
        ras.push(2);
        ras.push(3);
        assert_eq!(ras.pop(), Some(3));
        assert_eq!(ras.pop(), Some(2));
        assert_eq!(ras.pop(), Some(1));
        assert_eq!(ras.pop(), None);
    }

    #[test]
    fn overflow_wraps_and_drops_oldest() {
        let mut ras = Ras::new(2);
        ras.push(1);
        ras.push(2);
        ras.push(3); // overwrites 1
        assert_eq!(ras.pop(), Some(3));
        assert_eq!(ras.pop(), Some(2));
        // The oldest entry was lost to the wrap; depth is exhausted.
        assert_eq!(ras.pop(), None);
    }

    #[test]
    fn default_capacity_matches_table1() {
        assert_eq!(Ras::table1_default().capacity(), 64);
    }

    #[test]
    fn depth_tracks_pushes_and_pops() {
        let mut ras = Ras::new(4);
        assert_eq!(ras.depth(), 0);
        ras.push(9);
        assert_eq!(ras.depth(), 1);
        ras.pop();
        assert_eq!(ras.depth(), 0);
    }
}
