pub struct Pool {
    pub buf: Vec<u8>,
}

impl Pool {
    pub fn new(n: usize) -> Pool {
        Pool { buf: vec![0; n] }
    }
}

pub fn fused_points(n: usize) -> usize {
    let pool = Pool::new(n);
    fill(pool.buf.len())
}

fn fill(n: usize) -> usize {
    let extra = vec![0u8; n];
    extra.len()
}
