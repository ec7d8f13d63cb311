//! Minimal owned `mmap` region used for the io_uring shared rings.

use std::io;
use std::ptr::NonNull;

/// An owned, page-aligned shared memory mapping.
///
/// Used to map the kernel-shared SQ/CQ rings and the SQE array of an
/// io_uring instance. Unmapped on drop.
#[derive(Debug)]
pub struct Mmap {
    ptr: NonNull<u8>,
    len: usize,
}

// SAFETY: the mapping is plain shared memory; all concurrent access inside
// this crate goes through atomics with explicit ordering.
unsafe impl Send for Mmap {}
// SAFETY: same argument as Send above — `&Mmap` only exposes the base
// pointer and length; shared-memory reads/writes go through atomics.
unsafe impl Sync for Mmap {}

impl Mmap {
    /// Maps `len` bytes of `fd` at file-offset `offset`, read/write, shared.
    ///
    /// # Errors
    /// Returns the `mmap(2)` errno on failure (e.g. `EINVAL` for a bad
    /// offset, `ENOMEM` when out of address space).
    pub fn map(fd: i32, len: usize, offset: libc::off_t) -> io::Result<Self> {
        // SAFETY: we request a fresh mapping (addr = null) and validate the
        // result; MAP_POPULATE is a hint only.
        let ptr = unsafe {
            libc::mmap(
                std::ptr::null_mut(),
                len,
                libc::PROT_READ | libc::PROT_WRITE,
                libc::MAP_SHARED | libc::MAP_POPULATE,
                fd,
                offset,
            )
        };
        if ptr == libc::MAP_FAILED {
            return Err(io::Error::last_os_error());
        }
        Ok(Self {
            // SAFETY: mmap returned non-null (checked above, MAP_FAILED is -1).
            ptr: unsafe { NonNull::new_unchecked(ptr.cast()) },
            len,
        })
    }

    /// Length of the mapping in bytes.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the mapping is empty (never true for a successful map).
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Raw base pointer of the mapping.
    pub fn as_ptr(&self) -> *mut u8 {
        self.ptr.as_ptr()
    }

    /// Returns a typed pointer `offset` bytes into the mapping.
    ///
    /// # Panics
    /// Panics if `offset + size_of::<T>()` exceeds the mapping length.
    pub fn offset_as<T>(&self, offset: u32) -> *mut T {
        let end = offset as usize + std::mem::size_of::<T>();
        assert!(
            end <= self.len,
            "mmap access out of bounds: {end} > {}",
            self.len
        );
        // SAFETY: bounds checked above; alignment is guaranteed by the
        // kernel-provided ring offsets (all fields are naturally aligned).
        unsafe { self.ptr.as_ptr().add(offset as usize).cast::<T>() }
    }
}

impl Drop for Mmap {
    fn drop(&mut self) {
        // SAFETY: ptr/len came from a successful mmap and are unmapped once.
        unsafe {
            libc::munmap(self.ptr.as_ptr().cast(), self.len);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn anonymous_tmpfile_mapping_roundtrip() {
        // Map a real file and check we can write/read through the mapping.
        let path = crate::test_path("mmap");
        std::fs::write(&path, vec![0u8; 4096]).unwrap();
        let f = std::fs::OpenOptions::new()
            .read(true)
            .write(true)
            .open(&path)
            .unwrap();
        use std::os::unix::io::AsRawFd;
        let m = Mmap::map(f.as_raw_fd(), 4096, 0).unwrap();
        assert_eq!(m.len(), 4096);
        assert!(!m.is_empty());
        // SAFETY: in-bounds write to our own mapping.
        unsafe { *m.as_ptr().add(10) = 42 };
        let p: *mut u8 = m.offset_as::<u8>(10);
        // SAFETY: same in-bounds byte.
        assert_eq!(unsafe { *p }, 42);
        drop(m);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn offset_as_bounds_checked() {
        let path = crate::test_path("mmap-oob");
        std::fs::write(&path, vec![0u8; 64]).unwrap();
        let f = std::fs::OpenOptions::new()
            .read(true)
            .write(true)
            .open(&path)
            .unwrap();
        use std::os::unix::io::AsRawFd;
        let m = Mmap::map(f.as_raw_fd(), 64, 0).unwrap();
        std::fs::remove_file(&path).ok();
        let _ = m.offset_as::<u64>(60);
    }

    #[test]
    fn map_bad_fd_fails() {
        assert!(Mmap::map(-1, 4096, 0).is_err());
    }
}
