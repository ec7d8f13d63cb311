//! Negative twin of `bad_loan_scratch.rs`: the completion is reaped with
//! `wait_completion` before `page` goes out of scope, so the buffer outlives
//! the kernel's use of it. Lint-clean.

pub fn fetch_page(ring: &mut Ring, fd: i32, off: u64) -> Result<(), RingError> {
    let mut page = vec![0u8; PAGE_BYTES];
    // SAFETY: fd is open and `page` holds PAGE_BYTES writable bytes; the
    // buffer stays alive until `wait_completion` reaps the completion below.
    unsafe { ring.prepare_read(fd, page.as_mut_ptr(), PAGE_BYTES as u32, off, 1)? };
    ring.submit()?;
    ring.wait_completion()?;
    Ok(())
}
