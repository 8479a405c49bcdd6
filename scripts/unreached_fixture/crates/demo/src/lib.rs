//! A fixture for the self-test of `scripts/unreached.sh`: a tree its
//! exact listing (`expected.txt`) is checked against. Never compiled.

mod hexagon;
pub mod shapes;
mod user;

// A re-export names nothing: `Square` stays unreached.
pub use shapes::Square;

fn main() {
    let _ = user::total(&[user::unit()]) + user::kinds();
}
