//! Crash-safe whole-file replacement behind every persisted file: the
//! controller journal, the spec log, the billing ledger and the
//! metrics textfile.

use std::io::{self, Write as _};
use std::path::Path;

/// Replace `path` with `bytes`: write `<path>.tmp`, fsync it, rename it
/// over `path`, fsync the directory. A crash at any point leaves the previous file or the
/// complete new one, never a torn or empty file, and a concurrent
/// reader sees one or the other. Errors keep their [`io::ErrorKind`]
/// and name the file the failing step touched.
pub fn write_atomic(path: &Path, bytes: &[u8]) -> io::Result<()> {
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let tmp = Path::new(&tmp);
    let err = |step: &str, e: io::Error| {
        io::Error::new(e.kind(), format!("{step} {}: {e}", tmp.display()))
    };
    let mut file = std::fs::File::create(tmp).map_err(|e| err("create", e))?;
    file.write_all(bytes)
        .and_then(|()| file.sync_all())
        .map_err(|e| err("write", e))?;
    drop(file);
    std::fs::rename(tmp, path).map_err(|e| err("rename", e))?;
    // The rename is an entry in the directory: sync that too, or a crash
    // can bring the previous file back.
    let dir = match path.parent() {
        Some(d) if !d.as_os_str().is_empty() => d,
        _ => Path::new("."),
    };
    std::fs::File::open(dir)
        .and_then(|d| d.sync_all())
        .map_err(|e| io::Error::new(e.kind(), format!("sync {}: {e}", dir.display())))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn scratch(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("vfc-durable-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn replaces_the_target_and_leaves_no_tmp_file() {
        let dir = scratch("replace");
        let path = dir.join("state.json");
        write_atomic(&path, b"one\n").unwrap();
        write_atomic(&path, b"two\n").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"two\n");
        assert!(!dir.join("state.json.tmp").exists());
        assert_eq!(std::fs::read_dir(&dir).unwrap().count(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_missing_directory_is_an_error_naming_the_path() {
        let path = scratch("missing").join("no-such-dir").join("state.json");
        let err = write_atomic(&path, b"x").unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::NotFound);
        assert!(err.to_string().contains("no-such-dir"), "{err}");
        assert!(!path.exists());
    }
}
