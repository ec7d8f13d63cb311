//! `ringtop` — live terminal dashboard for a running sampler.
//!
//! ```text
//! ringtop ADDR [--once] [--json] [--window N] [--interval MS]
//!              [--width W]
//! ```
//!
//! Connects to the ringscope endpoint printed at sampler startup
//! (`ringscope listening on http://ADDR`), polls `GET /history` and
//! `GET /resources` every `--interval` ms (default 1000), and redraws a
//! per-worker dashboard: throughput / queue-depth / batch-p99 / CPU-share
//! sparklines, windowed rates, EWMA trends, the ringprof time-ledger bar
//! with read-amplification figures, plus a fleet roll-up.
//!
//! * `--once` renders a single frame (no escape codes) and exits — the
//!   CI-friendly mode the gate asserts on.
//! * `--json` dumps the two raw documents (one `{"history", "resources"}`
//!   wrapper object) instead of rendering, for scripted consumers.
//! * `--window N` bounds the requested series length (server clamps to
//!   its retained capacity).

use std::io::{Read as _, Write as _};
use std::net::TcpStream;
use std::time::Duration;

use ringsampler_bench::ringtop::{parse_history, parse_resources, render_frame, ResourcesView};

fn usage() -> ! {
    eprintln!("usage: ringtop ADDR [--once] [--json] [--window N] [--interval MS] [--width W]");
    std::process::exit(2);
}

/// One blocking HTTP/1.1 GET against the ringscope server. The server
/// closes the connection after each response, so read-to-EOF is the
/// framing.
fn http_get(addr: &str, path: &str) -> Result<String, String> {
    let mut stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .map_err(|e| e.to_string())?;
    stream
        .write_all(format!("GET {path} HTTP/1.1\r\nHost: ringtop\r\n\r\n").as_bytes())
        .map_err(|e| format!("send {path}: {e}"))?;
    let mut raw = String::new();
    stream
        .read_to_string(&mut raw)
        .map_err(|e| format!("read {path}: {e}"))?;
    let (head, body) = raw
        .split_once("\r\n\r\n")
        .ok_or_else(|| format!("malformed response for {path}"))?;
    let status = head.split_whitespace().nth(1).unwrap_or("0");
    if status != "200" {
        return Err(format!("GET {path}: HTTP {status}"));
    }
    Ok(body.to_string())
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut addr: Option<String> = None;
    let mut once = false;
    let mut json = false;
    let mut window = 64u64;
    let mut interval_ms = 1000u64;
    let mut width = 48usize;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--once" => once = true,
            "--json" => json = true,
            "--window" => {
                i += 1;
                window = args
                    .get(i)
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage());
            }
            "--interval" => {
                i += 1;
                interval_ms = args
                    .get(i)
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage());
            }
            "--width" => {
                i += 1;
                width = args
                    .get(i)
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage());
            }
            "--help" | "-h" => usage(),
            a if a.starts_with("--") => usage(),
            a => {
                // Accept a bare host:port or a full http:// URL (the form
                // the startup announcement prints).
                let trimmed = a.trim_start_matches("http://").trim_end_matches('/');
                if addr.replace(trimmed.to_string()).is_some() {
                    usage();
                }
            }
        }
        i += 1;
    }
    let Some(addr) = addr else { usage() };

    loop {
        let history_text = match http_get(&addr, &format!("/history?window={window}")) {
            Ok(text) => text,
            Err(e) => {
                eprintln!("ringtop: {e}");
                std::process::exit(1);
            }
        };
        // Resources are best-effort: an older server without the
        // endpoint (or profiling off) just loses the ledger rows.
        let resources_text =
            http_get(&addr, "/resources").unwrap_or_else(|_| "{\"resources\": null}".into());
        if json {
            use std::io::Write;
            // All documents end in a newline; the wrapper is line-splittable.
            // A closed pipe (`ringtop --json | head`) is a normal way for a
            // consumer to stop reading, not an error worth a panic.
            let doc = format!(
                "{{\"history\": {}, \"resources\": {}}}\n",
                history_text.trim_end(),
                resources_text.trim_end()
            );
            if std::io::stdout().write_all(doc.as_bytes()).is_err() {
                std::process::exit(0);
            }
        } else {
            let series = match parse_history(&history_text) {
                Ok(s) => s,
                Err(e) => {
                    eprintln!("ringtop: bad /history document: {e}");
                    std::process::exit(1);
                }
            };
            let resources = parse_resources(&resources_text).unwrap_or_else(|_| {
                eprintln!("ringtop: bad /resources document (ignored)");
                ResourcesView::default()
            });
            let frame = render_frame(&series, &resources, width);
            if once {
                print!("{frame}");
            } else {
                // Clear + home, then the frame: a flicker-free redraw for
                // the sub-second polling cadence.
                print!("\x1b[2J\x1b[H{frame}");
                let _ = std::io::stdout().flush();
            }
        }
        if once || json {
            break;
        }
        std::thread::sleep(Duration::from_millis(interval_ms.max(50)));
    }
}
