//! Rows digests: the benchmark's own stable hash of result rows, so the
//! expected digests kept with it depend on the rows alone.

/// FNV-1a, 64 bit.
pub fn fnv64(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// One cell's identity within its experiment and its result rows.
pub type CellRows = (String, usize, Vec<Vec<String>>);

/// Digest of a set of cells, independent of the order they arrive in:
/// cells are taken in `(domain, index)` order, the order `GET /cells`
/// serves them in, so computed, cached and served rows compare directly.
pub fn rows_digest(cells: &[CellRows]) -> String {
    let mut order: Vec<&CellRows> = cells.iter().collect();
    order.sort_by(|a, b| (&a.0, a.1).cmp(&(&b.0, b.1)));
    let mut text = String::new();
    for (domain, index, rows) in order {
        text.push_str(domain);
        text.push('\t');
        text.push_str(&index.to_string());
        text.push('\t');
        text.push_str(&bvl_lab::jsonio::encode_rows(rows));
        text.push('\n');
    }
    format!("{:016x}", fnv64(text.as_bytes()))
}

/// The digests kept with the benchmark: `(workload, seed) → digest`.
pub fn expected(workload: &str, seed: u64) -> Option<&'static str> {
    include_str!("../expected.txt")
        .lines()
        .filter(|l| !l.starts_with('#'))
        .find_map(|l| {
            let mut f = l.split_whitespace();
            (f.next() == Some(workload) && f.next()?.parse() == Ok(seed))
                .then(|| f.next())
                .flatten()
        })
}
