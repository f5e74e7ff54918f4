// The counters' fixture (scripts/ruler-check.sh): test items in the
// middle of a file, each followed by code that counts. Not compiled.

#[cfg(test)]
mod model_tests;

pub struct Window {
    next: u64,
}

#[cfg(test)]
impl Window {
    fn peek(&self) -> u64 {
        Some(self.next).unwrap()
    }
}

impl Window {
    pub fn take(&mut self) -> u64 {
        let n = self.next.checked_add(1).expect("in range");
        std::mem::replace(&mut self.next, n)
    }
}

#[cfg(test)]
#[derive(Debug, Default)]
struct Skips {
    taken: u64,
}

#[cfg(test)]
#[derive(Debug)]
struct Marker;

pub fn must(v: Option<u64>) -> u64 {
    match v {
        Some(v) => v, // not .unwrap() here: a comment
        None => panic!("none"),
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn take() {
        let w = super::Window { next: 1 }.take();
        assert_eq!(Some(w).unwrap(), 1);
    }
}
