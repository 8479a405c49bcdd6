/// `user.rs` names `Hexagon` only as the variant `Kind::Hexagon`, which
/// does not name this type: unreached.
pub struct Hexagon;

impl Hexagon {
    /// Shares its name with `Kind::sides`; the `.sides(` calls in
    /// `user.rs` are in a file that does not name this type: unreached.
    pub fn sides(&self) -> u64 {
        6
    }
}
