//! Line caps of the JSON-lines transports. One line outgrowing its cap
//! ends the connection: a peer that streams bytes without ever sending a
//! newline must not grow the reader's memory without limit.

/// Upper bound on one client→server wire line, in bytes (the newline
/// excluded). Far above any real frame — a job line carries one matrix,
/// and a 3000×3000 one (≈9 MB) fits with room to spare — while keeping a
/// newline-less peer from ballooning server memory.
pub const MAX_LINE_BYTES: usize = 16 * 1024 * 1024;

/// Upper bound clients apply to one server→client line. Response lines
/// carry partition index lists that can outgrow their job line by an
/// order of magnitude, so this is far looser than [`MAX_LINE_BYTES`]; it
/// exists only to bound client memory against a broken server.
pub const MAX_RESPONSE_LINE_BYTES: usize = 16 * MAX_LINE_BYTES;
