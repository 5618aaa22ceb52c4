"""Image file exchange formats.

Two formats cover the two needs: a raw little-endian float64 container with a
one-line ASCII header ("GSGS-IMG rows cols") for exact round-trips, and 16-bit
binary PGM for quick visualization. PGM is lossy by nature (affine rescale to
the 16-bit range); the applied range is kept in a comment line.
"""

import numpy as np

from .errors import ImageFormatError

F64_MAGIC = b"GSGS-IMG"
PGM_MAXVAL = 65535


def write_image_f64(path, image):
    """Write a 2-D array exactly: header line, then row-major little-endian f64."""
    image = np.asarray(image, dtype=float)
    if image.ndim != 2:
        raise ValueError(f"expected a 2-D image, got ndim={image.ndim}")
    rows, cols = image.shape
    with open(path, "wb") as fh:
        fh.write(F64_MAGIC + f" {rows} {cols}\n".encode("ascii"))
        fh.write(np.ascontiguousarray(image, dtype="<f8").tobytes())


def read_image_f64(path):
    """Read an image written by `write_image_f64`. Bit-exact round trip."""
    with open(path, "rb") as fh:
        header = fh.readline()
        parts = header.split()
        if (len(parts) != 3 or parts[0] != F64_MAGIC
                or not (parts[1].isdigit() and parts[2].isdigit())):
            raise ImageFormatError(f"{path}: not a GSGS-IMG file (header {header!r})")
        rows, cols = int(parts[1]), int(parts[2])
        data = np.frombuffer(fh.read(rows * cols * 8), dtype="<f8")
    if data.size != rows * cols:
        raise ImageFormatError(
            f"{path}: truncated payload ({data.size} of {rows * cols} values)")
    return data.reshape(rows, cols).astype(float)


def write_image_pgm16(path, image, lo=None, hi=None):
    """Write a 16-bit binary PGM, rescaling [lo, hi] onto [0, 65535].

    Defaults map the image min/max onto the full range; a constant image maps
    to mid-gray. The applied range is recorded in a comment for reference.
    """
    image = np.asarray(image, dtype=float)
    if image.ndim != 2:
        raise ValueError(f"expected a 2-D image, got ndim={image.ndim}")
    lo = float(image.min()) if lo is None else float(lo)
    hi = float(image.max()) if hi is None else float(hi)
    if hi > lo:
        scaled = (image - lo) / (hi - lo)
    else:
        scaled = np.full_like(image, 0.5)
    pixels = np.clip(np.round(scaled * PGM_MAXVAL), 0, PGM_MAXVAL).astype(">u2")
    rows, cols = image.shape
    with open(path, "wb") as fh:
        fh.write(b"P5\n")
        fh.write(f"# range {lo:.17g} {hi:.17g}\n".encode("ascii"))
        fh.write(f"{cols} {rows}\n{PGM_MAXVAL}\n".encode("ascii"))
        fh.write(pixels.tobytes())


def read_image_pgm16(path):
    """Read a 16-bit binary PGM written by `write_image_pgm16`.

    Returns (pixels, (lo, hi)); pixels are the raw uint16 values.
    """
    with open(path, "rb") as fh:
        magic = fh.readline().strip()
        if magic != b"P5":
            raise ImageFormatError(f"{path}: not a binary PGM")
        lo = hi = None
        line = fh.readline()
        try:
            while line.startswith(b"#"):
                parts = line.split()
                if len(parts) == 4 and parts[1] == b"range":
                    lo, hi = float(parts[2]), float(parts[3])
                line = fh.readline()
            cols, rows = (int(v) for v in line.split())
            maxval = int(fh.readline())
            if min(rows, cols) < 0:
                raise ValueError(f"negative size {cols} x {rows}")
        except ValueError as exc:
            raise ImageFormatError(f"{path}: malformed PGM header ({exc})") from None
        if maxval != PGM_MAXVAL:
            raise ImageFormatError(f"{path}: expected 16-bit PGM, maxval={maxval}")
        pixels = np.frombuffer(fh.read(rows * cols * 2), dtype=">u2")
    if pixels.size != rows * cols:
        raise ImageFormatError(f"{path}: truncated payload")
    return pixels.reshape(rows, cols).astype(np.uint16), (lo, hi)
