use crate::shapes::{self, Circle, Kind};

/// Shares its name with the variant `Kind::Star`, which it does not reach.
struct Star;

pub fn total(circles: &[Circle]) -> u64 {
    circles.iter().map(|c| c.size()).sum::<u64>() + circles.len() as u64
}

pub fn unit() -> Circle {
    Circle::new(1)
}

pub fn kinds() -> u64 {
    let area = shapes::perimeter(&unit());
    let _ = Star;
    Kind::Round.sides() + Kind::Hexagon.sides() + area
}

#[cfg(test)]
mod tests {
    use crate::shapes::Square;

    #[test]
    fn square_size() {
        assert_eq!(Square::new(2).size(), 4);
    }
}
