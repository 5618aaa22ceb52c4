"""File format round trips."""

import numpy as np
import pytest

from gsgs import (
    GsgsError,
    ImageFormatError,
    read_image_f64,
    read_image_pgm16,
    write_image_f64,
    write_image_pgm16,
)


def test_f64_round_trip_is_exact(tmp_path):
    img = np.random.default_rng(0).standard_normal((5, 7)) * 1e6
    path = tmp_path / "img.f64"
    write_image_f64(path, img)
    back = read_image_f64(path)
    np.testing.assert_array_equal(back, img)


def test_f64_header_format(tmp_path):
    path = tmp_path / "img.f64"
    write_image_f64(path, np.zeros((3, 4)))
    with open(path, "rb") as fh:
        assert fh.readline() == b"GSGS-IMG 3 4\n"


def test_f64_rejects_foreign_file(tmp_path):
    path = tmp_path / "junk.f64"
    path.write_bytes(b"P5\n2 2\n255\n....")
    with pytest.raises(ValueError):
        read_image_f64(path)


def test_f64_rejects_truncated_payload(tmp_path):
    path = tmp_path / "img.f64"
    write_image_f64(path, np.ones((4, 4)))
    data = path.read_bytes()
    path.write_bytes(data[:-8])
    with pytest.raises(ValueError):
        read_image_f64(path)


@pytest.mark.parametrize("header", [b"GSGS-IMG x 4\n", b"GSGS-IMG -1 4\n", b"GSGS-IMG 4\n"])
def test_f64_malformed_header_is_a_package_error(tmp_path, header):
    # The package's error, so the command line reports it without a
    # traceback; also a ValueError, as before.
    path = tmp_path / "img.f64"
    path.write_bytes(header + bytes(8 * 16))
    with pytest.raises(ImageFormatError, match="img.f64") as err:
        read_image_f64(path)
    assert isinstance(err.value, GsgsError) and isinstance(err.value, ValueError)


def test_pgm_round_trip_quantized(tmp_path):
    img = np.linspace(-2.0, 3.0, 24).reshape(4, 6)
    path = tmp_path / "img.pgm"
    write_image_pgm16(path, img)
    pixels, (lo, hi) = read_image_pgm16(path)
    assert (lo, hi) == (img.min(), img.max())
    restored = lo + pixels.astype(float) / 65535 * (hi - lo)
    assert np.abs(restored - img).max() < (hi - lo) / 65535


def test_pgm_constant_image_is_midgray(tmp_path):
    path = tmp_path / "flat.pgm"
    write_image_pgm16(path, np.full((2, 2), 9.0))
    pixels, _ = read_image_pgm16(path)
    assert (pixels == round(0.5 * 65535)).all()


def test_pgm_is_16_bit_big_endian(tmp_path):
    path = tmp_path / "img.pgm"
    write_image_pgm16(path, np.array([[0.0, 1.0]]), lo=0.0, hi=1.0)
    raw = path.read_bytes()
    assert raw.startswith(b"P5\n")
    assert raw.endswith(b"\x00\x00\xff\xff")


@pytest.mark.parametrize("header", [
    b"P5\nx 2\n65535\n",
    b"P5\n2\n65535\n",
    b"P5\n2 3 4\n65535\n",
    b"P5\n-2 -2\n65535\n",
    b"P5\n2 2\n65535.0\n",
    b"P5\n# range a 1\n2 2\n65535\n",
])
def test_pgm_malformed_header_is_a_package_error(tmp_path, header):
    # Size line, maxval and range comment alike: the package's error, naming
    # the file.
    path = tmp_path / "img.pgm"
    path.write_bytes(header + bytes(2 * 4 * 3))
    with pytest.raises(ImageFormatError, match="img.pgm"):
        read_image_pgm16(path)
