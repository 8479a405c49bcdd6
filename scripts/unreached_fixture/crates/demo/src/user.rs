use crate::shapes::Circle;

pub fn total(circles: &[Circle]) -> u64 {
    circles.iter().map(|c| c.size()).sum::<u64>() + circles.len() as u64
}

pub fn unit() -> Circle {
    Circle::new(1)
}

#[cfg(test)]
mod tests {
    use crate::shapes::Square;

    #[test]
    fn square_size() {
        assert_eq!(Square::new(2).size(), 4);
    }
}
