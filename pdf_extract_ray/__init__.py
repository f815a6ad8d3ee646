"""pdf_extract_ray — a Ray-Data-native main-content extraction engine.

A from-scratch rebuild of the capabilities of the reference repo
``Bushanhui/pdf_extract`` (layout parse -> fragment merge -> rule-based
sentence composition -> per-document reassembly -> quality/metadata
analysis -> alignment), re-expressed as ``ray.data.Dataset`` pipelines
over zero-copy Arrow batches for Common-Crawl-style web-page tables
``(url, warc_ts, html, text, lang)``.

Nothing in this package calls ``ray.init()``/``ray.shutdown()``; a Ray
session is owned by the caller (driver, perfbench, CLI, test fixture).
"""

from pdf_extract_ray.config import ExtractConfig

__version__ = "0.1.0"

__all__ = ["ExtractConfig", "__version__"]
