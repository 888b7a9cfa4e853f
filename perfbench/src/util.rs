//! Small helpers shared by the subcommands.

/// Prints `msg` to stderr and exits with status 1.
pub fn die(msg: &str) -> ! {
    eprintln!("perfbench: {msg}");
    std::process::exit(1)
}

/// A seeded splitmix64 generator: the same seed gives the same inputs on
/// every machine.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x6a09_e667_f3bc_c908)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.below(i + 1);
            items.swap(i, j);
        }
    }
}

/// Named command-line flags: `--name value` pairs after the subcommand.
pub struct Args(Vec<(String, String)>);

impl Args {
    pub fn parse(raw: &[String]) -> Args {
        let mut pairs = Vec::new();
        let mut it = raw.iter();
        while let Some(flag) = it.next() {
            let Some(name) = flag.strip_prefix("--") else {
                die(&format!("unexpected argument {flag}"))
            };
            let value = it
                .next()
                .unwrap_or_else(|| die(&format!("--{name} needs a value")));
            pairs.push((name.to_string(), value.clone()));
        }
        Args(pairs)
    }

    pub fn get(&self, name: &str) -> Option<&str> {
        self.0
            .iter()
            .find_map(|(k, v)| (k == name).then_some(v.as_str()))
    }

    pub fn req(&self, name: &str) -> &str {
        self.get(name)
            .unwrap_or_else(|| die(&format!("missing --{name}")))
    }

    pub fn num<T: std::str::FromStr>(&self, name: &str, default: T) -> T {
        match self.get(name) {
            None => default,
            Some(v) => v
                .parse()
                .unwrap_or_else(|_| die(&format!("bad value for --{name}: {v}"))),
        }
    }
}
