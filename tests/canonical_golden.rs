//! Golden content keys, stage keys and program digests.
//!
//! Each row names one compile request — a Table 2 circuit generated with
//! seed 1 on `Architecture::for_qubits(n)` with 1, 2 or 4 AODs, greedy or
//! auto routing, one thread: the 138 keys of the `service-mix` benchmark —
//! plus QFT-64/128 on 4 AODs with the default config, QFT-64 without
//! storage, and QAOA-regular3/4-256 on 4 AODs under greedy, lookahead,
//! multi-AOD and auto routing with storage on and off — large enough that
//! every free-site query path (walk, storage-column and compute-row
//! oracles) engages, and the digests cover the `site_scans` /
//! `sites_pruned` counters. The values are `content_hash`, `stage_hash`
//! and the emitted program's `program_digest`. The service cache, the daemon's replies and
//! every client that compares digests rely on these staying bit-identical
//! however the canonical text is produced, so a change to any of them is a
//! format change and must be made on purpose.

use powermove::{content_hash, stage_hash, CompilerConfig, RoutingConfig};
use powermove_benchmarks::{generate, table2_sizes, BenchmarkFamily};
use powermove_circuit::Circuit;
use powermove_exec::{Parallelism, ThreadPool};
use powermove_hardware::Architecture;
use powermove_schedule::program_digest;

/// `(request, content_hash, stage_hash, program_digest)`, one request per
/// line.
#[rustfmt::skip]
const GOLDEN: [(&str, &str, &str, &str); 157] = [
    ("QAOA-regular3-30/aod1/greedy", "41d93df5a30e4fc9", "344ed20d7b9070aa", "273df4a57662ebf8"),
    ("QAOA-regular3-30/aod1/auto", "ea4e5c005e3cdb4a", "75e638292d4314e3", "70e5d64cc54f39c4"),
    ("QAOA-regular3-30/aod2/greedy", "ab7edb57ae2b0eaa", "344ed20d7b9070aa", "9b81d4e807928117"),
    ("QAOA-regular3-30/aod2/auto", "6d32e2d94f82fee3", "75e638292d4314e3", "c37afb2c5c79a047"),
    ("QAOA-regular3-30/aod4/greedy", "f4d5d2719dd6d92c", "344ed20d7b9070aa", "0eacde330cfa9858"),
    ("QAOA-regular3-30/aod4/auto", "8fd8b1b8553b032d", "75e638292d4314e3", "e062fe731dcc6506"),
    ("QAOA-regular3-40/aod1/greedy", "7f4c58b44cbfb265", "5e730e917a1f10b6", "7d41ba2947b8b5dd"),
    ("QAOA-regular3-40/aod1/auto", "43382a051688a146", "6db8f0c3b0ee2eff", "1f808a3502cfd3fa"),
    ("QAOA-regular3-40/aod2/greedy", "0b67fd32f21a08c6", "5e730e917a1f10b6", "9ee76144ca5c0bd4"),
    ("QAOA-regular3-40/aod2/auto", "c3960a1d62d19fcf", "6db8f0c3b0ee2eff", "56c77f2331c15219"),
    ("QAOA-regular3-40/aod4/greedy", "70673484a1c99580", "5e730e917a1f10b6", "3959a5a373f6c24d"),
    ("QAOA-regular3-40/aod4/auto", "19c199504017dbf1", "6db8f0c3b0ee2eff", "7dd7b58b4c5acfb6"),
    ("QAOA-regular3-50/aod1/greedy", "d84ae44f3e241711", "4d03756a712ffb9e", "a02e5d85731abb92"),
    ("QAOA-regular3-50/aod1/auto", "8f5e93b84ae47bf2", "f0764190937a8a27", "7dec3264b4eff12e"),
    ("QAOA-regular3-50/aod2/greedy", "8e6b5b029c16cc32", "4d03756a712ffb9e", "d8e54135da5cb949"),
    ("QAOA-regular3-50/aod2/auto", "acf1aaea5bc8bb6b", "f0764190937a8a27", "ccfe7b99106ceeaf"),
    ("QAOA-regular3-50/aod4/greedy", "bcacdd37a7c00694", "4d03756a712ffb9e", "ef38ed64ab071b54"),
    ("QAOA-regular3-50/aod4/auto", "9bb4e553ce47f975", "f0764190937a8a27", "55e529859c65bd63"),
    ("QAOA-regular3-60/aod1/greedy", "97779a3d11173a35", "9f19deb13ece0a1a", "dd39e5efb29c655b"),
    ("QAOA-regular3-60/aod1/auto", "faeb698efcdef696", "3b24e124ce32f313", "f98a061bc60831bf"),
    ("QAOA-regular3-60/aod2/greedy", "f7c06d5969992b16", "9f19deb13ece0a1a", "118f00ef16cc13e2"),
    ("QAOA-regular3-60/aod2/auto", "c4038893cfac485f", "3b24e124ce32f313", "87a159a7c24219aa"),
    ("QAOA-regular3-60/aod4/greedy", "4b81fbbfd6a697d0", "9f19deb13ece0a1a", "139a7582f8b6d54a"),
    ("QAOA-regular3-60/aod4/auto", "91705c7f10cbf501", "3b24e124ce32f313", "4125bff8c0241d9c"),
    ("QAOA-regular3-80/aod1/greedy", "7aa8a14ba33c3489", "54d0f8524a582f82", "d209af184aab9ff3"),
    ("QAOA-regular3-80/aod1/auto", "fd9fabeccd390d0a", "4a345bccdf291ebb", "e7352be526552fef"),
    ("QAOA-regular3-80/aod2/greedy", "563dfbfdbf52316a", "54d0f8524a582f82", "a5f174d9c7a0e362"),
    ("QAOA-regular3-80/aod2/auto", "1751c793a94989a3", "4a345bccdf291ebb", "4f736b3e7380f5c9"),
    ("QAOA-regular3-80/aod4/greedy", "05bccbcbd7324bec", "54d0f8524a582f82", "017a80acd782a323"),
    ("QAOA-regular3-80/aod4/auto", "f6cfe608de286ced", "4a345bccdf291ebb", "701a75e1c07502a1"),
    ("QAOA-regular3-100/aod1/greedy", "5df7ad04a62348c7", "0e60b48f86bc2db1", "61b88830a650adc0"),
    ("QAOA-regular3-100/aod1/auto", "1ab57918612115f8", "572906c3993a6c12", "7199971c015e929f"),
    ("QAOA-regular3-100/aod2/greedy", "e2942e87d9573dec", "0e60b48f86bc2db1", "fcdbe60a60417233"),
    ("QAOA-regular3-100/aod2/auto", "e713528bf2c2b2ed", "572906c3993a6c12", "7bd5919f83d84472"),
    ("QAOA-regular3-100/aod4/greedy", "33155eb9c177236a", "0e60b48f86bc2db1", "781797d4d9c0a4f9"),
    ("QAOA-regular3-100/aod4/auto", "07953416bde3cfa3", "572906c3993a6c12", "86d20d6c8f087886"),
    ("QAOA-regular4-30/aod1/greedy", "835bf7be6466dbe8", "0e141814fca60663", "c429eb9cc9817817"),
    ("QAOA-regular4-30/aod1/auto", "dc6a8b06a34b6039", "ac1750bab69e3dd4", "b7275dff90883486"),
    ("QAOA-regular4-30/aod2/greedy", "5dd6e5424d240573", "0e141814fca60663", "b6f139c3dc00fcb9"),
    ("QAOA-regular4-30/aod2/auto", "e066e4f043ef1f64", "ac1750bab69e3dd4", "270742fb73f089dc"),
    ("QAOA-regular4-30/aod4/greedy", "d639607e46b3ab4d", "0e141814fca60663", "4f0df02985c73c96"),
    ("QAOA-regular4-30/aod4/auto", "d49419574b13678e", "ac1750bab69e3dd4", "7d6d1935146d5a33"),
    ("QAOA-regular4-40/aod1/greedy", "686e01fbfe2acd55", "e0d8b324f0ee1206", "1ec746f3bfff79bd"),
    ("QAOA-regular4-40/aod1/auto", "a60f5091d0d6cab6", "1570b402ee95ab0f", "1675bc1b54bccf1d"),
    ("QAOA-regular4-40/aod2/greedy", "52c52f1d74e15db6", "e0d8b324f0ee1206", "4896becda35988af"),
    ("QAOA-regular4-40/aod2/auto", "a3260151411a2dff", "1570b402ee95ab0f", "00e215700152ed72"),
    ("QAOA-regular4-40/aod4/greedy", "74353c52403f73f0", "e0d8b324f0ee1206", "2d82b7c84e17c3bf"),
    ("QAOA-regular4-40/aod4/auto", "e10a45ae144fbaa1", "1570b402ee95ab0f", "2150dc0eee35b3d7"),
    ("QAOA-regular4-50/aod1/greedy", "3182bacd202703cc", "043643416f65e00f", "2572192c73c41da9"),
    ("QAOA-regular4-50/aod1/auto", "089232c0d599ef4d", "5e648ebad775c960", "e7c3f50234c7a419"),
    ("QAOA-regular4-50/aod2/greedy", "9892d1ba83abbe27", "043643416f65e00f", "5591f819305a851a"),
    ("QAOA-regular4-50/aod2/auto", "2a2211ee3c885e58", "5e648ebad775c960", "a509314f5e863d4f"),
    ("QAOA-regular4-50/aod4/greedy", "a343013eed0675e9", "043643416f65e00f", "b7385dc6877be3da"),
    ("QAOA-regular4-50/aod4/auto", "bcbb8dcfa33ab0ea", "5e648ebad775c960", "0ef6821a0a20c0ab"),
    ("QAOA-regular4-60/aod1/greedy", "07abd33e4f52de51", "c6307e0f96b8235e", "d44c8ffe717f5494"),
    ("QAOA-regular4-60/aod1/auto", "e44e06bf9a693332", "19f4098e7e679fe7", "7a4340b3be08bd02"),
    ("QAOA-regular4-60/aod2/greedy", "40e940e6eb7d2472", "c6307e0f96b8235e", "46aac6e37fc32f6b"),
    ("QAOA-regular4-60/aod2/auto", "098f28fd401495ab", "19f4098e7e679fe7", "1c57592483fd97ee"),
    ("QAOA-regular4-60/aod4/greedy", "c8f457032c4ff8d4", "c6307e0f96b8235e", "5bf6146792f3c990"),
    ("QAOA-regular4-60/aod4/auto", "ca42a12f23e9a3b5", "19f4098e7e679fe7", "5b7fb38fe8c43ae4"),
    ("QAOA-regular4-80/aod1/greedy", "968379a17e8625e9", "7d80c0a6d7b2b322", "bfc9c25dddc2b73c"),
    ("QAOA-regular4-80/aod1/auto", "ac59adddfd0440ea", "9ce916bf4095515b", "47aba3f36c909770"),
    ("QAOA-regular4-80/aod2/greedy", "e7afffdf764d37ca", "7d80c0a6d7b2b322", "bb7cbb6fa82bfe27"),
    ("QAOA-regular4-80/aod2/auto", "a3be1c7c80acba83", "9ce916bf4095515b", "0d5492745b465ead"),
    ("QAOA-regular4-80/aod4/greedy", "24c3332fb1a6b3cc", "7d80c0a6d7b2b322", "492c5189d48bf3cd"),
    ("QAOA-regular4-80/aod4/auto", "f83052cf2f637f4d", "9ce916bf4095515b", "63055d25fe6f01f6"),
    ("QAOA-random-20/aod1/greedy", "ceaa6f84dae1b8c6", "72086bd664261c9d", "9a78c2aa97cf0821"),
    ("QAOA-random-20/aod1/auto", "bcbfa52794332fcf", "7694c4fc3c235a9e", "edd529248e35a2a0"),
    ("QAOA-random-20/aod2/greedy", "428ecb0635876265", "72086bd664261c9d", "0b513dbffb8e5bfb"),
    ("QAOA-random-20/aod2/auto", "3c61c50f47ea3146", "7694c4fc3c235a9e", "8ee57ee67fbd595b"),
    ("QAOA-random-20/aod4/greedy", "92073aa06baaaf0b", "72086bd664261c9d", "aea69006a7bbe691"),
    ("QAOA-random-20/aod4/auto", "38bfd624f87eaabc", "7694c4fc3c235a9e", "1673a0a4766e0dfa"),
    ("QAOA-random-30/aod1/greedy", "48247624ea7bb578", "cd2d2f6786b43793", "453df87730af256f"),
    ("QAOA-random-30/aod1/auto", "7b11f709f2a2b689", "09f815dc3128a284", "a37cf339d5ba6a28"),
    ("QAOA-random-30/aod2/greedy", "e684eaa2b09c7983", "cd2d2f6786b43793", "7c1724b8907d2cf9"),
    ("QAOA-random-30/aod2/auto", "59a38c50e4a70174", "09f815dc3128a284", "72856cc240b6d3de"),
    ("QAOA-random-30/aod4/greedy", "451efcf705ef1d1d", "cd2d2f6786b43793", "b9ebdd2fbebdbf21"),
    ("QAOA-random-30/aod4/auto", "df4f87d1f001181e", "09f815dc3128a284", "669957ff07136deb"),
    ("QFT-18/aod1/greedy", "183100dd4d528652", "8b456c4f193e8fc9", "2aa836914038e96a"),
    ("QFT-18/aod1/auto", "e7b344e63fb0920b", "986b00e3bcab9b4a", "b51b97c43ae97f0e"),
    ("QFT-18/aod2/greedy", "dbd36faffd2968b1", "8b456c4f193e8fc9", "e2ec0800fe2176e2"),
    ("QFT-18/aod2/auto", "c9e85995c50cc512", "986b00e3bcab9b4a", "8534f11803b101bc"),
    ("QFT-18/aod4/greedy", "eb04f458edb9170f", "8b456c4f193e8fc9", "d895837e5279a481"),
    ("QFT-18/aod4/auto", "f62c491ad2743660", "986b00e3bcab9b4a", "26b0aa3e4d93e3ce"),
    ("QFT-29/aod1/greedy", "315a2866476a8a26", "fe0abb8ebb6a0619", "073e2df45d72ddef"),
    ("QFT-29/aod1/auto", "6469bac66cea352f", "21d2ce4b4e1d331a", "986cb5876b6bf2d2"),
    ("QFT-29/aod2/greedy", "1d5471088497c6c5", "fe0abb8ebb6a0619", "36f7d49e84cda86a"),
    ("QFT-29/aod2/auto", "14b19f605fbb72a6", "21d2ce4b4e1d331a", "98d04571fcde846d"),
    ("QFT-29/aod4/greedy", "dcbaacfe4895b76b", "fe0abb8ebb6a0619", "09b5124ad498e2a3"),
    ("QFT-29/aod4/auto", "451171805ee19d1c", "21d2ce4b4e1d331a", "7d390487eac3adff"),
    ("BV-14/aod1/greedy", "807ae977b80cdb5c", "8cae424536c8a44c", "cadd05154bd4c4c6"),
    ("BV-14/aod1/auto", "10e5edd33972441d", "af48f62782ac8ccd", "2ad6035204fce0f8"),
    ("BV-14/aod2/greedy", "5346a92569b249b7", "8cae424536c8a44c", "38ac31499731835a"),
    ("BV-14/aod2/auto", "cc4944d4a7b77ae8", "af48f62782ac8ccd", "0b3aa8b95034debb"),
    ("BV-14/aod4/greedy", "6c67dc9b7b918bb9", "8cae424536c8a44c", "38ac31499731835a"),
    ("BV-14/aod4/auto", "c8156e7b748ec03a", "af48f62782ac8ccd", "0b3aa8b95034debb"),
    ("BV-50/aod1/greedy", "ae2713cea82f7c2d", "6c5044b8e35ae0c2", "4c353061e087f8dc"),
    ("BV-50/aod1/auto", "31aadebfdc84c2ee", "a970db349ef1c8fb", "85469a84d49bb9bd"),
    ("BV-50/aod2/greedy", "5727be752ce0ef2e", "6c5044b8e35ae0c2", "0f7e78cf53760e25"),
    ("BV-50/aod2/auto", "d42ef4727785b4b7", "a970db349ef1c8fb", "6231426d94896f60"),
    ("BV-50/aod4/greedy", "5d1da11923253748", "6c5044b8e35ae0c2", "0f7e78cf53760e25"),
    ("BV-50/aod4/auto", "70ad0c09e491fa19", "a970db349ef1c8fb", "6231426d94896f60"),
    ("BV-70/aod1/greedy", "03219eadb7e34ba6", "a82723cb0b9b0ded", "3ad8361666d1e519"),
    ("BV-70/aod1/auto", "1c218660308eadaf", "03171fee413093ae", "8f6a9415236d8d03"),
    ("BV-70/aod2/greedy", "ef1be74ff5108845", "a82723cb0b9b0ded", "6da8fdcf6c35182f"),
    ("BV-70/aod2/auto", "cc696afa235feb26", "03171fee413093ae", "5b653d1b76e7cf45"),
    ("BV-70/aod4/greedy", "ae822345b90e78eb", "a82723cb0b9b0ded", "6da8fdcf6c35182f"),
    ("BV-70/aod4/auto", "fcc93d1a2286159c", "03171fee413093ae", "5b653d1b76e7cf45"),
    ("VQE-30/aod1/greedy", "b3f9622e6f2c7968", "ea81d4b39c8167e3", "019bf129926ff0ba"),
    ("VQE-30/aod1/auto", "6967dc30ade98cb9", "2653faf265c59654", "009bca8c6177b273"),
    ("VQE-30/aod2/greedy", "8e744fb257e9a2f3", "ea81d4b39c8167e3", "e71eb914eb9a8f6c"),
    ("VQE-30/aod2/auto", "6d64361a4e8d4be4", "2653faf265c59654", "fada630cf59730ad"),
    ("VQE-30/aod4/greedy", "06d6caee517948cd", "ea81d4b39c8167e3", "d231dc0a6d447bdf"),
    ("VQE-30/aod4/auto", "61916a8155b1940e", "2653faf265c59654", "140c0b755c65b032"),
    ("VQE-50/aod1/greedy", "682f2718134e72aa", "046c3246917251d5", "5b235dd389d3c574"),
    ("VQE-50/aod1/auto", "0849a08598b80ae3", "f7595dec0751f436", "b260beacde4b41f9"),
    ("VQE-50/aod2/greedy", "fe8989b60831b3c9", "046c3246917251d5", "8231a0b69c0bce0a"),
    ("VQE-50/aod2/auto", "856519aca771e74a", "f7595dec0751f436", "d223286e8e0871d5"),
    ("VQE-50/aod4/greedy", "8a3d159cf3546f07", "046c3246917251d5", "2671c59ba97d7fc9"),
    ("VQE-50/aod4/auto", "e4cc7c6f133ed338", "f7595dec0751f436", "96562ae69748e23f"),
    ("QSIM-rand-0.3-10/aod1/greedy", "43c3b88c56107c3d", "5b3c175432b2f143", "4c6eb739f9487a21"),
    ("QSIM-rand-0.3-10/aod1/auto", "8ae9f5b3b0ff9e3e", "ede657a535533034", "0179415b297256b2"),
    ("QSIM-rand-0.3-10/aod2/greedy", "9dc67afff7b001be", "5b3c175432b2f143", "7a9612879a7e56c7"),
    ("QSIM-rand-0.3-10/aod2/auto", "fee747648643f647", "ede657a535533034", "62507f7549dc795b"),
    ("QSIM-rand-0.3-10/aod4/greedy", "70113ab43de3b098", "5b3c175432b2f143", "be892151e5a141ff"),
    ("QSIM-rand-0.3-10/aod4/auto", "d4ecbeba1d57d9a9", "ede657a535533034", "56192a524d53a64d"),
    ("QSIM-rand-0.3-20/aod1/greedy", "f5ca72e24f9fccce", "2626d286bf960f75", "542d4d9d02928ca3"),
    ("QSIM-rand-0.3-20/aod1/auto", "42da5942ac7bc5d7", "0395054c3a4195d6", "e6a159f2ac4a0437"),
    ("QSIM-rand-0.3-20/aod2/greedy", "2b5238c3171965cd", "2626d286bf960f75", "4620b65799f64d64"),
    ("QSIM-rand-0.3-20/aod2/auto", "edd43d715880830e", "0395054c3a4195d6", "4c243f0071a64b67"),
    ("QSIM-rand-0.3-20/aod4/greedy", "b2efbd871d89bff3", "2626d286bf960f75", "3703563736c4d32a"),
    ("QSIM-rand-0.3-20/aod4/auto", "f9a7090a515c3ae4", "0395054c3a4195d6", "c3eaf9377a256448"),
    ("QSIM-rand-0.3-40/aod1/greedy", "ab3a9597b1c4d297", "33f1d4a376e292f4", "66d386359110b531"),
    ("QSIM-rand-0.3-40/aod1/auto", "5460bec58e450948", "beede02a3cac34d5", "235f5bfca714aeee"),
    ("QSIM-rand-0.3-40/aod2/greedy", "251000a6762f70bc", "33f1d4a376e292f4", "013ac01c135eab23"),
    ("QSIM-rand-0.3-40/aod2/auto", "4ccba08fff50347d", "beede02a3cac34d5", "cc1a050b3153e13b"),
    ("QSIM-rand-0.3-40/aod4/greedy", "616853d86168407a", "33f1d4a376e292f4", "0a9dc0db26fb5deb"),
    ("QSIM-rand-0.3-40/aod4/auto", "019e44b93c297bf3", "beede02a3cac34d5", "849ade44fbcf0c77"),
    ("QFT-64/aod4/default", "184727c0db6054c0", "3e363830941e976a", "4c753dd933d81d17"),
    ("QFT-128/aod4/default", "eac5c3b0092a0c92", "ff2003357518c215", "98b449f88e641e2b"),
    ("QFT-64/aod4/no-storage", "ed3852eb34c366fb", "81a22545a94e21b5", "2e2c030704854475"),
    ("QAOA-regular3-256/aod4/greedy/storage", "7369840faf797215", "4e72a5caf1a47edb", "fb8dfea736a274a1"),
    ("QAOA-regular3-256/aod4/lookahead/storage", "8adc0b5784ec7d33", "23cab548c5e1c449", "a154fe664cae0f07"),
    ("QAOA-regular3-256/aod4/multi-aod/storage", "ed1c5813a6b38f82", "109d470c66a213e0", "627f81f2e76e8b93"),
    ("QAOA-regular3-256/aod4/auto/storage", "34b0890d1a528e76", "15297d6252bc320c", "dfa230c1232bbcbf"),
    ("QAOA-regular3-256/aod4/greedy/no-storage", "53dc36924234b560", "b96d8fddaa2afd36", "f8d1ea22fcb9fa37"),
    ("QAOA-regular3-256/aod4/lookahead/no-storage", "75447386ba9315a8", "609f5e97a0c5034e", "5d7c83badbde364b"),
    ("QAOA-regular3-256/aod4/multi-aod/no-storage", "e6f538890454a3d9", "545bc3f2a521340f", "fa568d075b4c340d"),
    ("QAOA-regular3-256/aod4/auto/no-storage", "18ed1a68b33607d1", "e65a19f67a4f507f", "cb016cb4d65d1639"),
    ("QAOA-regular4-256/aod4/greedy/storage", "5eeef94916c7bf49", "f7179eea95af4d07", "62496c1e52ba410a"),
    ("QAOA-regular4-256/aod4/lookahead/storage", "278873e62755a027", "1f3fa4f92b921545", "e2acff43effcf0ea"),
    ("QAOA-regular4-256/aod4/multi-aod/storage", "164b8aefa0bcb2ce", "45fc4ff3202e42d4", "28821baedfe71190"),
    ("QAOA-regular4-256/aod4/auto/storage", "33f0cb5d8b3aedca", "0c8e374e4c1d7d38", "f6bbc40084e67f89"),
    ("QAOA-regular4-256/aod4/greedy/no-storage", "c3fc4f9383c1992c", "81b27b89035995ca", "02d171b0d7973106"),
    ("QAOA-regular4-256/aod4/lookahead/no-storage", "2f4688ba4a8d3a84", "a9dce5b1c27838e2", "be25bc541c9bc1c9"),
    ("QAOA-regular4-256/aod4/multi-aod/no-storage", "84ab524161763c5d", "e69f827ce8f5ddeb", "72a4528c0dac211e"),
    ("QAOA-regular4-256/aod4/auto/no-storage", "e7b134a7eec5432d", "b1d6262fcc53e483", "3cb8d6925b25a0ff"),
];

struct Request {
    name: String,
    circuit: Circuit,
    arch: Architecture,
    config: CompilerConfig,
}

fn requests() -> Vec<Request> {
    let mut requests = Vec::new();
    for (family, qubits) in table2_sizes() {
        let circuit = generate(family, qubits, 1).circuit;
        for aods in [1, 2, 4] {
            for (routing, config) in [
                ("greedy", RoutingConfig::greedy()),
                ("auto", RoutingConfig::auto()),
            ] {
                requests.push(Request {
                    name: format!("{family}-{qubits}/aod{aods}/{routing}"),
                    circuit: circuit.clone(),
                    arch: Architecture::for_qubits(qubits).with_num_aods(aods),
                    config: CompilerConfig::default()
                        .with_threads(1)
                        .with_routing(config),
                });
            }
        }
    }
    for qubits in [64, 128] {
        requests.push(Request {
            name: format!("QFT-{qubits}/aod4/default"),
            circuit: generate(BenchmarkFamily::Qft, qubits, 1).circuit,
            arch: Architecture::for_qubits(qubits).with_num_aods(4),
            config: CompilerConfig::default().with_threads(1),
        });
    }
    requests.push(Request {
        name: "QFT-64/aod4/no-storage".to_string(),
        circuit: generate(BenchmarkFamily::Qft, 64, 1).circuit,
        arch: Architecture::for_qubits(64).with_num_aods(4),
        config: CompilerConfig::without_storage().with_threads(1),
    });
    for family in [BenchmarkFamily::QaoaRegular3, BenchmarkFamily::QaoaRegular4] {
        let circuit = generate(family, 256, 1).circuit;
        for (storage, base) in [
            ("storage", CompilerConfig::default()),
            ("no-storage", CompilerConfig::without_storage()),
        ] {
            for (routing, config) in [
                ("greedy", RoutingConfig::greedy()),
                ("lookahead", RoutingConfig::lookahead(2)),
                ("multi-aod", RoutingConfig::multi_aod()),
                ("auto", RoutingConfig::auto()),
            ] {
                requests.push(Request {
                    name: format!("{family}-256/aod4/{routing}/{storage}"),
                    circuit: circuit.clone(),
                    arch: Architecture::for_qubits(256).with_num_aods(4),
                    config: base.with_threads(1).with_routing(config),
                });
            }
        }
    }
    requests
}

#[test]
fn content_and_stage_keys_match_the_golden_values() {
    let requests = requests();
    assert_eq!(requests.len(), GOLDEN.len());
    for (request, (name, key, stage, _)) in requests.iter().zip(GOLDEN) {
        assert_eq!(request.name, name);
        let got = content_hash(&request.circuit, &request.arch, &request.config);
        assert_eq!(got.hex(), key, "{name}: content_hash");
        let got = stage_hash(&request.circuit, &request.config);
        assert_eq!(got.hex(), stage, "{name}: stage_hash");
    }
}

#[test]
fn program_digests_match_the_golden_values() {
    let requests = requests();
    let pool = ThreadPool::new(Parallelism::from_env());
    let digests = pool.par_map(requests.iter().collect(), |request: &Request| {
        let program = powermove::compile(&request.circuit, &request.arch, &request.config)
            .unwrap_or_else(|e| panic!("{}: {e}", request.name));
        program_digest(&program)
    });
    for (digest, (name, _, _, golden)) in digests.iter().zip(GOLDEN) {
        assert_eq!(digest, golden, "{name}: program_digest");
    }
}
