//! Negative twin of `bad_swallowed.rs`: every fallible ring operation is
//! propagated with `?` or explicitly branched on. Lint-clean.

pub fn flush(ring: &mut Ring) -> Result<(), RingError> {
    ring.submit()?;
    if ring.wait_completion().is_err() {
        ring.pump_one()?;
    }
    Ok(())
}
