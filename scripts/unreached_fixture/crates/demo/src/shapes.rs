/// Reached: `user.rs` names it.
pub struct Circle {
    r: u64,
}

impl Circle {
    /// Reached by path: `Circle::new`.
    pub fn new(r: u64) -> Self {
        Circle { r }
    }

    /// Reached by `.size(` in a file that names `Circle`.
    pub fn size(&self) -> u64 {
        self.r
    }
}

/// Named only by a `pub use` and by test code: unreached.
pub struct Square {
    side: u64,
}

impl Square {
    /// Called only under `#[cfg(test)]`: unreached.
    pub fn new(side: u64) -> Self {
        Square { side }
    }

    /// Shares its name with `Circle::size`, whose callers do not reach it.
    pub fn size(&self) -> u64 {
        self.side * self.side
    }

    /// Named like a std method: `.len(` on a slice does not reach it.
    pub fn len(&self) -> usize {
        self.side as usize
    }

    /// Kept by a line in `scripts/unreached.keep`.
    pub fn is_empty(&self) -> bool {
        self.side == 0
    }
}

/// Reached by the path `shapes::perimeter`.
pub fn perimeter(c: &Circle) -> u64 {
    6 * c.r
}

/// `user.rs` has a local `area` and neither imports this one nor names a
/// path to it: unreached.
pub fn area(c: &Circle) -> u64 {
    3 * c.r * c.r
}

/// Reached: `user.rs` imports it.
pub enum Kind {
    /// Reached by the path `Kind::Round`.
    Round,
    /// Reached by the path `Kind::Hexagon`.
    Hexagon,
    /// `user.rs` names only its own `Star`: unreached.
    Star,
}

impl Kind {
    /// Reached by `.sides(` in a file that imports `Kind`.
    pub fn sides(&self) -> u64 {
        match self {
            Kind::Round => 0,
            Kind::Hexagon => 6,
            Kind::Star => 10,
        }
    }
}
